package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/trace"
	"repro/internal/transport"
)

func newLookupServer(t *testing.T, fabric *transport.InProc, clk clock.Clock) (*Server, *Client) {
	t.Helper()
	lookup := NewLookup(clk)
	mux := transport.NewMux()
	srv := NewServer(lookup, mux, fabric.Node("lookup"), clk)
	stop, err := fabric.Serve("lookup", mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); stop() })
	client := &Client{Caller: fabric.Node("client"), Addr: "lookup"}
	return srv, client
}

// eventLog is a watch listener: it records every event delivered to it.
type eventLog struct {
	mu     sync.Mutex
	events []Event
	ctxs   []trace.SpanContext // the span context each delivery arrived under
}

// mux serves the log at method "onchange"; each delivery first runs before
// (may be nil).
func (l *eventLog) mux(before func(context.Context)) *transport.Mux {
	mux := transport.NewMux()
	transport.Register(mux, "onchange", func(ctx context.Context, ev Event) (Empty, error) {
		if before != nil {
			before(ctx)
		}
		sc, _ := trace.FromContext(ctx)
		l.mu.Lock()
		l.events = append(l.events, ev)
		l.ctxs = append(l.ctxs, sc)
		l.mu.Unlock()
		return Empty{}, nil
	})
	return mux
}

func (l *eventLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

func (l *eventLog) snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

func serve(t *testing.T, fabric *transport.InProc, addr string, h transport.Handler) {
	t.Helper()
	stop, err := fabric.Serve(addr, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
}

// waitFor polls cond until it holds. The 30 s bound only catches a hang: the
// conditions wait on real delivery goroutines, which race-detector runs slow.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// register advertises one adaptation service with id.
func register(t *testing.T, client *Client, id string) {
	t.Helper()
	if _, err := client.Register(context.Background(), ServiceItem{ID: id, Name: "midas.adaptation", Addr: id}, time.Minute); err != nil {
		t.Error(err)
	}
}

func (s *Server) liveWatches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.watches)
}

func TestServerRegisterFindRenewDeregister(t *testing.T) {
	fabric := transport.NewInProc()
	_, client := newLookupServer(t, fabric, clock.Real{})

	leaseID, err := client.Register(context.Background(), ServiceItem{ID: "r1", Name: "midas.adaptation", Addr: "r1"}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if leaseID == "" {
		t.Fatal("empty lease id")
	}
	items, err := client.Find(Template{Name: "midas.*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].ID != "r1" {
		t.Fatalf("Find = %v", items)
	}
	if err := client.Renew(leaseID, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := client.Deregister("r1"); err != nil {
		t.Fatal(err)
	}
	items, _ = client.Find(Template{})
	if len(items) != 0 {
		t.Fatalf("after deregister: %v", items)
	}
}

func TestServerWatchDeliversRemoteEvents(t *testing.T) {
	fabric := transport.NewInProc()
	_, client := newLookupServer(t, fabric, clock.Real{})
	var got eventLog
	serve(t, fabric, "base1", got.mux(nil))

	watchID, err := client.Watch(Template{Name: "midas.adaptation"}, time.Minute, "base1", "onchange")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.RenewWatch(watchID, time.Minute); err != nil {
		t.Fatal(err)
	}

	register(t, client, "r1")
	if err := client.Deregister("r1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "watch events", func() bool { return got.len() >= 2 })
	if events := got.snapshot(); events[0].Kind != Added || events[1].Kind != Removed {
		t.Errorf("events = %+v", events)
	}
}

// Events reach the listener in the order the lookup produced them, each
// under the span context of the registration that caused it.
func TestServerWatchDeliversInOrder(t *testing.T) {
	fabric := transport.NewInProc()
	_, client := newLookupServer(t, fabric, clock.Real{})
	var got eventLog
	serve(t, fabric, "base1", got.mux(nil))
	if _, err := client.Watch(Template{}, time.Minute, "base1", "onchange"); err != nil {
		t.Fatal(err)
	}

	const n = 20
	for i := 1; i <= n; i++ {
		sc := trace.SpanContext{TraceID: fmt.Sprintf("t-%d", i), SpanID: "s-1"}
		ctx := trace.NewContext(context.Background(), sc)
		if _, err := client.Register(ctx, ServiceItem{ID: fmt.Sprintf("r%d", i), Name: "svc"}, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "ordered events", func() bool { return got.len() == n })

	got.mu.Lock()
	defer got.mu.Unlock()
	for i, ev := range got.events {
		want := trace.SpanContext{TraceID: fmt.Sprintf("t-%d", i+1), SpanID: "s-1"}
		if ev.Kind != Added || ev.Item.ID != fmt.Sprintf("r%d", i+1) {
			t.Errorf("event[%d] = %+v", i, ev)
		}
		if ev.Trace != want || got.ctxs[i] != want {
			t.Errorf("event[%d] trace = %+v, delivered under %+v, want %+v", i, ev.Trace, got.ctxs[i], want)
		}
	}
}

// Unwatch at the lookup ends the delivery loop with the watcher: nothing
// registered later is delivered, and the watch's lease is gone.
func TestServerUnwatchStopsDelivery(t *testing.T) {
	fabric := transport.NewInProc()
	srv, client := newLookupServer(t, fabric, clock.Real{})
	var got eventLog
	serve(t, fabric, "base1", got.mux(nil))
	watchID, err := client.Watch(Template{}, time.Minute, "base1", "onchange")
	if err != nil {
		t.Fatal(err)
	}
	srv.lookup.Unwatch(watchID)
	waitFor(t, "delivery loop exit", func() bool { return srv.liveWatches() == 0 })

	register(t, client, "r1")
	if n := got.len(); n != 0 {
		t.Errorf("delivered %d events after unwatch", n)
	}
	if err := client.RenewWatch(watchID, time.Minute); !errors.Is(err, lease.ErrUnknownLease) {
		t.Errorf("RenewWatch after unwatch = %v, want ErrUnknownLease", err)
	}
}

// A burst of concurrent registrations to a slow listener delivers every
// event exactly once and leaves the watch alive for later arrivals.
func TestServerWatchBurstDeliversEveryEvent(t *testing.T) {
	fabric := transport.NewInProc()
	_, client := newLookupServer(t, fabric, clock.Real{})
	var got eventLog
	serve(t, fabric, "base1", got.mux(func(context.Context) { time.Sleep(200 * time.Microsecond) }))
	watchID, err := client.Watch(Template{Name: "midas.adaptation"}, time.Minute, "base1", "onchange")
	if err != nil {
		t.Fatal(err)
	}

	const n = 1000
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			register(t, client, fmt.Sprintf("r%d", i))
		}()
	}
	wg.Wait()
	waitFor(t, "every burst event", func() bool { return got.len() >= n })

	seen := make(map[string]int, n)
	for _, ev := range got.snapshot() {
		if ev.Kind != Added {
			t.Errorf("unexpected event %+v", ev)
		}
		seen[ev.Item.ID]++
	}
	for i := 0; i < n; i++ {
		if id := fmt.Sprintf("r%d", i); seen[id] != 1 {
			t.Errorf("%s delivered %d times", id, seen[id])
		}
	}

	register(t, client, "late")
	waitFor(t, "the later arrival", func() bool { return got.len() == n+1 })
	if err := client.RenewWatch(watchID, time.Minute); err != nil {
		t.Errorf("RenewWatch after the burst: %v", err)
	}
}

// A listener behind the base station's default per-peer buckets (50/s,
// burst 100) sheds most of a quick run of registrations. The loop waits out
// each shed on the server's clock and resends, so every event arrives.
func TestServerWatchWaitsOutSheds(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	fabric := transport.NewInProc()
	_, client := newLookupServer(t, fabric, clk)
	buckets := overload.NewBuckets(overload.BucketConfig{
		Rate: 50, Burst: 100, Methods: []string{"onchange"},
		RetryAfter: 250 * time.Millisecond, Clock: clk,
	})
	var got eventLog
	serve(t, fabric, "base1", overload.Wrap(got.mux(nil), nil, buckets, nil))
	if _, err := client.Watch(Template{}, time.Minute, "base1", "onchange"); err != nil {
		t.Fatal(err)
	}

	// At 50/s the 200 events past the burst need 4 s of simulated time;
	// drainBy fails the test past 20 s.
	drainBy := func(want int) {
		t.Helper()
		start := clk.Now()
		waitFor(t, fmt.Sprintf("%d deliveries", want), func() bool {
			if got.len() >= want {
				return true
			}
			if clk.Now().Sub(start) > 20*time.Second {
				t.Fatalf("%d of %d delivered after 20 s of simulated time", got.len(), want)
			}
			clk.Advance(250 * time.Millisecond)
			return false
		})
	}
	const n = 300
	for i := 0; i < n; i++ {
		register(t, client, fmt.Sprintf("r%d", i))
	}
	drainBy(n)
	if buckets.Sheds() == 0 {
		t.Error("the listener shed nothing: the test did not exercise sheds")
	}
	register(t, client, "late")
	drainBy(n + 1)
	for i, ev := range got.snapshot()[:n] {
		if want := fmt.Sprintf("r%d", i); ev.Item.ID != want {
			t.Fatalf("event[%d] = %s, want %s", i, ev.Item.ID, want)
		}
	}
}

// A listener the lookup cannot reach ends the watch after maxFailures sends:
// the holder's next renewal finds no lease, and a keeper counts that as a
// renewal failure.
func TestServerWatchEndsAfterFailures(t *testing.T) {
	fabric := transport.NewInProc()
	srv, client := newLookupServer(t, fabric, clock.Real{})
	var got eventLog
	serve(t, fabric, "base1", got.mux(nil))
	var attempts atomic.Int64
	fabric.SetLinkFunc(func(from, to string) bool {
		if from == "lookup" && to == "base1" {
			attempts.Add(1)
			return false
		}
		return true
	})
	watchID, err := client.Watch(Template{}, time.Minute, "base1", "onchange")
	if err != nil {
		t.Fatal(err)
	}

	register(t, client, "r1")
	waitFor(t, "the watch to end", func() bool { return srv.liveWatches() == 0 })
	if n := attempts.Load(); n != maxFailures {
		t.Errorf("send attempts = %d, want %d", n, maxFailures)
	}
	if err := client.RenewWatch(watchID, time.Minute); !errors.Is(err, lease.ErrUnknownLease) {
		t.Fatalf("RenewWatch after the watch ended = %v, want ErrUnknownLease", err)
	}

	reg := metrics.New()
	keeper := Keep(clock.Real{}, reg, watchID, 40*time.Millisecond, client.RenewWatch, nil)
	defer keeper.Stop()
	waitFor(t, "lease.renew_failures", func() bool { return reg.CounterValue("lease.renew_failures") >= 1 })
}

// One watch's blocked listener does not hold up another watch's deliveries.
func TestServerWatchBlockedListenerIsolated(t *testing.T) {
	fabric := transport.NewInProc()
	_, client := newLookupServer(t, fabric, clock.Real{})
	release := make(chan struct{})
	var stuck, got eventLog
	serve(t, fabric, "stuck", stuck.mux(func(context.Context) { <-release }))
	t.Cleanup(func() { close(release) })
	serve(t, fabric, "base1", got.mux(nil))
	for _, addr := range []string{"stuck", "base1"} {
		if _, err := client.Watch(Template{}, time.Minute, addr, "onchange"); err != nil {
			t.Fatal(err)
		}
	}

	const n = 200
	for i := 0; i < n; i++ {
		register(t, client, fmt.Sprintf("r%d", i))
	}
	waitFor(t, "the free listener's events", func() bool { return got.len() == n })
	for i, ev := range got.snapshot() {
		if want := fmt.Sprintf("r%d", i); ev.Item.ID != want {
			t.Fatalf("event[%d] = %s, want %s", i, ev.Item.ID, want)
		}
	}
	if n := stuck.len(); n != 0 {
		t.Errorf("blocked listener recorded %d events", n)
	}
}

func TestServerOverTCP(t *testing.T) {
	lookup := NewLookup(clock.Real{})
	mux := transport.NewMux()
	caller := transport.NewTCPCaller()
	defer caller.Close()
	srv := NewServer(lookup, mux, caller, clock.Real{})
	defer srv.Close()
	tcpSrv, err := transport.ServeTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSrv.Close()

	client := &Client{Caller: caller, Addr: tcpSrv.Addr()}
	if _, err := client.Register(context.Background(), ServiceItem{ID: "n1", Name: "svc", Addr: "x"}, time.Minute); err != nil {
		t.Fatal(err)
	}
	items, err := client.Find(Template{Name: "svc"})
	if err != nil || len(items) != 1 {
		t.Fatalf("Find over TCP = %v, %v", items, err)
	}
}
