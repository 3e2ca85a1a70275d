package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// A context canceled before the dial must fail immediately with the context
// error, not wait out the 2s dial timeout.
func TestTCPDialHonorsCanceledContext(t *testing.T) {
	caller := NewTCPCaller()
	defer caller.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	// DialContext refuses a dead context up front, so this must not wait out
	// the 2s DialTimeout no matter where the address routes.
	var resp wireResp
	err := caller.Call(ctx, "192.0.2.1:9", "echo", wireResp{Msg: "x"}, &resp)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("canceled dial took %v, want immediate", took)
	}
}

// slowMux answers only after a long handler sleep, unless released early.
type slowHandler struct{ release chan struct{} }

func (h *slowHandler) Handle(_ context.Context, method string, _ []byte) ([]byte, error) {
	select {
	case <-h.release:
	case <-time.After(30 * time.Second):
	}
	return wire.Marshal(wireResp{Msg: "late"}), nil
}

// Cancellation mid-round-trip unblocks the in-flight call promptly instead of
// hanging until the server answers.
func TestTCPCancelMidCallUnblocks(t *testing.T) {
	h := &slowHandler{release: make(chan struct{})}
	srv, err := ServeTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(h.release) // before srv.Close, which waits for handlers

	caller := NewTCPCaller()
	defer caller.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		var resp wireResp
		done <- caller.Call(ctx, srv.Addr(), "slow", wireResp{Msg: "x"}, &resp)
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the server
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled call never returned")
	}
}

// A deadline expiring mid-round-trip surfaces context.DeadlineExceeded, which
// counts as a transient transport failure.
func TestTCPDeadlineMidCallIsTransient(t *testing.T) {
	h := &slowHandler{release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(h.release) }) }
	srv, err := ServeTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer release() // before srv.Close, which waits for handlers

	caller := NewTCPCaller()
	defer caller.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	var resp wireResp
	callErr := caller.Call(ctx, srv.Addr(), "slow", wireResp{Msg: "x"}, &resp)
	if !errors.Is(callErr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", callErr)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("deadline call took %v", took)
	}
	if !Transient(callErr) {
		t.Fatal("timed-out call should be transient")
	}
	// Nothing came back on the connection before the deadline, so it was
	// retired as silent: a fresh call dials anew and works once the handlers
	// are released.
	release()
	var out wireResp
	if err := caller.Call(context.Background(), srv.Addr(), "slow", wireResp{Msg: "y"}, &out); err != nil {
		t.Fatalf("call after dropped conn: %v", err)
	}
	if out.Msg != "late" {
		t.Fatalf("out = %q", out.Msg)
	}
}

// The dial error for an unreachable host stays an ErrUnreachable (not a
// context error) when the context is still live.
func TestTCPUnreachableStillUnreachable(t *testing.T) {
	caller := NewTCPCaller()
	caller.DialTimeout = 200 * time.Millisecond
	defer caller.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here now: connection refused
	var resp wireResp
	callErr := caller.Call(context.Background(), addr, "echo", wireResp{Msg: "x"}, &resp)
	if !errors.Is(callErr, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", callErr)
	}
}
