package transport

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func newEchoMux() *Mux {
	mux := NewMux()
	Register(mux, "echo", func(_ context.Context, req wireReq) (wireResp, error) {
		return wireResp{Msg: strings.Repeat(req.Msg, int(req.N))}, nil
	})
	Register(mux, "fail", func(_ context.Context, _ wireReq) (wireResp, error) {
		return wireResp{}, errors.New("deliberate failure")
	})
	return mux
}

func TestInProcRoundTrip(t *testing.T) {
	fabric := NewInProc()
	stop, err := fabric.Serve("nodeB", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	caller := fabric.Node("nodeA")
	resp, err := Invoke[wireReq, wireResp](context.Background(), caller, "nodeB", "echo", wireReq{Msg: "ab", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "ababab" {
		t.Errorf("resp = %q", resp.Msg)
	}
}

func TestInProcRemoteError(t *testing.T) {
	fabric := NewInProc()
	stop, _ := fabric.Serve("b", newEchoMux())
	defer stop()
	_, err := Invoke[wireReq, wireResp](context.Background(), fabric.Node("a"), "b", "fail", wireReq{})
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "deliberate failure") {
		t.Fatalf("want RemoteError, got %v", err)
	}
}

func TestInProcUnknownMethodAndNode(t *testing.T) {
	fabric := NewInProc()
	stop, _ := fabric.Serve("b", newEchoMux())
	defer stop()
	caller := fabric.Node("a")
	_, err := Invoke[wireReq, wireResp](context.Background(), caller, "b", "nope", wireReq{})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("unknown method: %v", err)
	}
	_, err = Invoke[wireReq, wireResp](context.Background(), caller, "ghost", "echo", wireReq{})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unknown node: %v", err)
	}
}

func TestInProcLinkFunc(t *testing.T) {
	fabric := NewInProc()
	stop, _ := fabric.Serve("b", newEchoMux())
	defer stop()
	var mu sync.Mutex
	up := true
	fabric.SetLinkFunc(func(from, to string) bool {
		mu.Lock()
		defer mu.Unlock()
		return up
	})
	caller := fabric.Node("a")
	if _, err := Invoke[wireReq, wireResp](context.Background(), caller, "b", "echo", wireReq{Msg: "x", N: 1}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	up = false
	mu.Unlock()
	_, err := Invoke[wireReq, wireResp](context.Background(), caller, "b", "echo", wireReq{Msg: "x", N: 1})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned call: %v", err)
	}
}

func TestInProcDuplicateAddress(t *testing.T) {
	fabric := NewInProc()
	stop, err := fabric.Serve("a", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.Serve("a", newEchoMux()); err == nil {
		t.Fatal("duplicate address should fail")
	}
	stop()
	// After stop the address is reusable.
	stop2, err := fabric.Serve("a", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	stop2()
}

func TestTCPRoundTrip(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	caller := NewTCPCaller()
	defer caller.Close()
	for i := 0; i < 3; i++ { // exercise connection reuse
		resp, err := Invoke[wireReq, wireResp](context.Background(), caller, srv.Addr(), "echo", wireReq{Msg: "hi", N: 2})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Msg != "hihi" {
			t.Errorf("resp = %q", resp.Msg)
		}
	}
}

func TestTCPRemoteError(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	caller := NewTCPCaller()
	defer caller.Close()
	_, err = Invoke[wireReq, wireResp](context.Background(), caller, srv.Addr(), "fail", wireReq{})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	// The connection survives a remote error.
	if _, err := Invoke[wireReq, wireResp](context.Background(), caller, srv.Addr(), "echo", wireReq{Msg: "a", N: 1}); err != nil {
		t.Fatalf("call after remote error: %v", err)
	}
}

func TestTCPUnreachable(t *testing.T) {
	caller := NewTCPCaller()
	caller.DialTimeout = 100 * time.Millisecond
	defer caller.Close()
	err := caller.Call(context.Background(), "127.0.0.1:1", "echo", wireReq{}, nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want unreachable, got %v", err)
	}
}

func TestTCPServerClose(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	caller := NewTCPCaller()
	defer caller.Close()
	if _, err := Invoke[wireReq, wireResp](context.Background(), caller, addr, "echo", wireReq{Msg: "x", N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	caller.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := caller.Call(ctx, addr, "echo", wireReq{Msg: "x", N: 1}, nil); err == nil {
		t.Fatal("call to closed server should fail")
	}
}

func TestMuxMethods(t *testing.T) {
	mux := newEchoMux()
	methods := mux.Methods()
	if len(methods) != 2 {
		t.Errorf("Methods = %v", methods)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := wireReq{Msg: "payload", N: 7}
	b, _, err := EncodeBody(in, true)
	if err != nil {
		t.Fatal(err)
	}
	var out wireReq
	if err := Decode(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("roundtrip = %+v", out)
	}
}

// TestInProcConcurrentCallsLossOff drives concurrent calls with loss off,
// for the race detector, while the test itself holds the fabric's read lock:
// a call that took the write lock would block behind it.
func TestInProcConcurrentCallsLossOff(t *testing.T) {
	fabric := NewInProc()
	stop, _ := fabric.Serve("b", newEchoMux())
	defer stop()
	fabric.SetLoss(1, 2)
	fabric.SetLoss(0, 0)

	fabric.mu.RLock()
	defer fabric.mu.RUnlock()
	const workers, calls = 8, 50
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			caller := fabric.Node("a")
			for i := 0; i < calls; i++ {
				if _, err := Invoke[wireReq, wireResp](context.Background(), caller, "b", "echo", wireReq{Msg: "x", N: 1}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("call with loss off: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("calls with loss off blocked behind a held read lock")
		}
	}
}

// TestInProcSetLossDropsDeterministically pins the loss schedule: SetLoss(1, 3)
// drops exactly every third call, and SetLoss(0, 0) stops the drops.
func TestInProcSetLossDropsDeterministically(t *testing.T) {
	fabric := NewInProc()
	stop, _ := fabric.Serve("b", newEchoMux())
	defer stop()
	caller := fabric.Node("a")
	call := func() error {
		_, err := Invoke[wireReq, wireResp](context.Background(), caller, "b", "echo", wireReq{Msg: "x", N: 1})
		return err
	}
	for round := 0; round < 2; round++ {
		fabric.SetLoss(1, 3) // also restarts the schedule
		for i := 1; i <= 9; i++ {
			err := call()
			if dropped := i%3 == 0; dropped != errors.Is(err, ErrUnreachable) {
				t.Fatalf("round %d call %d: err = %v, want dropped=%v", round, i, err, dropped)
			}
		}
	}
	fabric.SetLoss(0, 0)
	for i := 0; i < 9; i++ {
		if err := call(); err != nil {
			t.Fatalf("call %d with loss off: %v", i, err)
		}
	}
}
