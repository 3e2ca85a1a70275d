package transport

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// Regression tests for the multiplexed TCP connection: many calls share one
// pooled connection, each waiting on its own request ID.

// pooledMux returns the caller's pooled connection to addr, or nil.
func pooledMux(c *TCPCaller, addr string) *muxConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conns[addr]
}

// blockingMux serves "block", which waits until release is closed, and
// "quick", which answers at once. entered receives one value per "block"
// call that reached its handler.
func blockingMux(entered chan<- struct{}, release <-chan struct{}) *Mux {
	mux := NewMux()
	mux.HandleRaw("block", func(ctx context.Context, body []byte) ([]byte, error) {
		entered <- struct{}{}
		<-release
		return body, nil
	})
	mux.HandleRaw("quick", func(ctx context.Context, body []byte) ([]byte, error) {
		return body, nil
	})
	return mux
}

// Cancelling a finished call's context — what every WithTimeout + defer
// cancel caller does — must never disturb the next call on the shared
// connection. With a watcher goroutine per call this raced and failed later
// calls with early i/o timeouts.
func TestMuxCancelAfterReturn(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newWireEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sreg := metrics.New()
	srv.Instrument(sreg)
	caller := NewTCPCaller()
	defer caller.Close()

	const callers, calls = 2, 5000
	var failed atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				resp, err := Invoke[wireReq, wireResp](ctx, caller, srv.Addr(), "wecho", wireReq{Msg: "x", N: 2})
				cancel()
				if err == nil && resp.Msg != "xx" {
					err = errors.New("wrong response " + resp.Msg)
				}
				if err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, err)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d of %d calls failed; first: %v", n, callers*calls, firstErr.Load())
	}
	if got := testutil.Counter(sreg, "transport.serve_wire_conns"); got != 1 {
		t.Fatalf("serve_wire_conns = %d, want 1", got)
	}
}

// A pooled connection whose server went away is noticed by its reader, so
// the next call redials at once instead of writing into the dead socket and
// waiting out its deadline.
func TestStaleConnRedialsAtOnce(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newWireEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	caller := NewTCPCaller()
	defer caller.Close()
	call := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, err := Invoke[wireReq, wireResp](ctx, caller, addr, "wecho", wireReq{Msg: "s", N: 1})
		return err
	}
	if err := call(); err != nil {
		t.Fatal(err)
	}
	stale := pooledMux(caller, addr)
	srv.Close()
	testutil.WaitFor(t, "reader to see the server close", func() bool { return !stale.alive() })

	srv, err = ServeTCP(addr, newWireEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := time.Now()
	if err := call(); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("call after restart took %v, want a prompt redial", took)
	}
	if pooledMux(caller, addr) == stale {
		t.Fatal("stale connection still pooled")
	}
}

// Responses come back in completion order: a call whose handler blocks does
// not hold up a later call on the same connection.
func TestMuxOutOfOrderCompletion(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, err := ServeTCP("127.0.0.1:0", blockingMux(entered, release))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release) // before srv.Close, which waits for handlers
	caller := NewTCPCaller()
	defer caller.Close()

	first := make(chan error, 1)
	go func() {
		var out wireResp
		first <- caller.Call(context.Background(), srv.Addr(), "block", wireResp{Msg: "one"}, &out)
	}()
	<-entered
	var out wireResp
	if err := caller.Call(context.Background(), srv.Addr(), "quick", wireResp{Msg: "two"}, &out); err != nil || out.Msg != "two" {
		t.Fatalf("second call: %q, %v", out.Msg, err)
	}
	select {
	case err := <-first:
		t.Fatalf("blocked call returned before its handler was released: %v", err)
	default:
	}
	release <- struct{}{}
	if err := <-first; err != nil {
		t.Fatalf("released call: %v", err)
	}
}

// A request that was written before the connection died may have been
// applied, so the call fails instead of being replayed on a new connection.
func TestMuxWrittenRequestNotReplayed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted, requests atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				var preface [4]byte
				if _, err := io.ReadFull(br, preface[:]); err != nil {
					return
				}
				if _, err := conn.Write([]byte{wire.Magic, envTag, wire.Version}); err != nil {
					return
				}
				if _, err := readEnvelope(br); err != nil {
					return
				}
				requests.Add(1) // read in full, then the connection dies
			}()
		}
	}()
	caller := NewTCPCaller()
	defer caller.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var out wireResp
	err = caller.Call(ctx, ln.Addr().String(), "wecho", wireReq{Msg: "once", N: 1}, &out)
	if err == nil {
		t.Fatal("call on a connection that died after the write succeeded")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the connection failure, not a timeout", err)
	}
	if a, r := accepted.Load(), requests.Load(); a != 1 || r != 1 {
		t.Fatalf("accepted %d connections and %d requests, want 1 and 1 (no replay)", a, r)
	}
}

// A request that provably never left — its pooled connection was already
// dead, or the write failed — is re-sent once on a fresh connection and
// handled exactly once.
func TestMuxUnsentRequestResentOnce(t *testing.T) {
	var handled atomic.Int64
	mux := NewMux()
	mux.HandleRaw("count", func(ctx context.Context, body []byte) ([]byte, error) {
		handled.Add(1)
		return body, nil
	})
	srv, err := ServeTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sreg := metrics.New()
	srv.Instrument(sreg)
	caller := NewTCPCaller()
	defer caller.Close()
	var out wireResp
	if err := caller.Call(context.Background(), srv.Addr(), "count", wireResp{Msg: "a"}, &out); err != nil {
		t.Fatal(err)
	}
	// Kill the socket under the pooled connection: whether the reader has
	// noticed by the time of the next call or the write finds out, nothing
	// of that call can have reached the server.
	pooledMux(caller, srv.Addr()).conn.Close()
	if err := caller.Call(context.Background(), srv.Addr(), "count", wireResp{Msg: "b"}, &out); err != nil || out.Msg != "b" {
		t.Fatalf("call after the socket died: %q, %v", out.Msg, err)
	}
	if got := handled.Load(); got != 2 {
		t.Fatalf("handled %d requests, want 2", got)
	}
	if got := testutil.Counter(sreg, "transport.serve_wire_conns"); got != 2 {
		t.Fatalf("serve_wire_conns = %d, want 2", got)
	}
}

// Close fails every call still waiting on a pooled connection and leaves no
// goroutine behind.
func TestMuxCloseFailsPendingCalls(t *testing.T) {
	entered := make(chan struct{}, 3)
	release := make(chan struct{})
	srv, err := ServeTCP("127.0.0.1:0", blockingMux(entered, release))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	baseline := runtime.NumGoroutine()

	caller := NewTCPCaller()
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			var out wireResp
			errs <- caller.Call(context.Background(), srv.Addr(), "block", wireResp{Msg: "x"}, &out)
		}()
	}
	for i := 0; i < 3; i++ {
		<-entered
	}
	caller.Close()
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errCallerClosed) {
				t.Fatalf("pending call err = %v, want errCallerClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("pending call not failed by Close")
		}
	}
	close(release)
	testutil.WaitFor(t, "goroutines back to baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}

// deadlineNoDone reports a deadline but has no Done channel, like a context
// that detaches cancellation while keeping the deadline.
type deadlineNoDone struct{ context.Context }

func (deadlineNoDone) Done() <-chan struct{} { return nil }
func (deadlineNoDone) Err() error            { return nil }

// A context with a deadline but a nil Done channel still times out: the call
// enforces the deadline itself.
func TestMuxDeadlineWithoutDoneTimesOut(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, err := ServeTCP("127.0.0.1:0", blockingMux(entered, release))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)
	caller := NewTCPCaller()
	defer caller.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	var out wireResp
	err = caller.Call(deadlineNoDone{ctx}, srv.Addr(), "block", wireResp{Msg: "x"}, &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("call took %v past a 100ms deadline", took)
	}
}

// A call that times out leaves a connection that answered meanwhile in the
// pool, and retires one that stayed silent since the request went out: its
// peer is presumed gone without a FIN.
func TestMuxSilentConnRetired(t *testing.T) {
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	srv, err := ServeTCP("127.0.0.1:0", blockingMux(entered, release))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)
	caller := NewTCPCaller()
	defer caller.Close()
	var out wireResp
	if err := caller.Call(context.Background(), srv.Addr(), "quick", wireResp{Msg: "x"}, &out); err != nil {
		t.Fatal(err)
	}
	live := pooledMux(caller, srv.Addr())

	// Another call's response arrives while the blocked call waits.
	timedOut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		var out wireResp
		timedOut <- caller.Call(ctx, srv.Addr(), "block", wireResp{Msg: "x"}, &out)
	}()
	<-entered
	if err := caller.Call(context.Background(), srv.Addr(), "quick", wireResp{Msg: "y"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := <-timedOut; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if pooledMux(caller, srv.Addr()) != live || !live.alive() {
		t.Fatal("a connection that answered during the wait was retired")
	}

	// Nothing arrives while the blocked call waits.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := caller.Call(ctx, srv.Addr(), "block", wireResp{Msg: "x"}, &out); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if live.alive() {
		t.Fatal("a connection silent past the deadline is still alive")
	}
}
