package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// flakyCaller fails while down, succeeds otherwise, and counts the calls that
// actually reach it.
type flakyCaller struct {
	down  bool
	calls int
}

func (f *flakyCaller) Call(ctx context.Context, to, method string, req, resp any) error {
	f.calls++
	if f.down {
		return fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	return nil
}

func TestBreakerOpensFastFailsAndRecloses(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	inner := &flakyCaller{down: true}
	reg := metrics.New()
	set := NewBreakerSet(1, BreakerConfig{Threshold: 3, Cooldown: 5 * time.Second, Jitter: 0, Clock: clk})
	set.Instrument(reg)
	c := set.Wrap(inner)
	ctx := context.Background()

	// Three consecutive transport failures trip the circuit.
	for i := 0; i < 3; i++ {
		if err := c.Call(ctx, "robot1", "m", nil, nil); !errors.Is(err, ErrUnreachable) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := set.State("robot1"); got != BreakerOpen {
		t.Fatalf("state = %v after threshold failures, want open", got)
	}

	// While open, calls fast-fail without reaching the network.
	before := inner.calls
	for i := 0; i < 5; i++ {
		if err := c.Call(ctx, "robot1", "m", nil, nil); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("open circuit returned %v, want ErrBreakerOpen", err)
		}
	}
	if inner.calls != before {
		t.Fatalf("open circuit leaked %d calls to the network", inner.calls-before)
	}
	if got := reg.Snapshot().Counters["transport.breaker_fastfails"]; got != 5 {
		t.Fatalf("breaker_fastfails = %d, want 5", got)
	}
	// ErrBreakerOpen is not itself a transport failure.
	if transient(fmt.Errorf("%w: robot1", ErrBreakerOpen)) {
		t.Fatal("ErrBreakerOpen counts as a transient failure")
	}

	// After the cooldown one probe is admitted; it fails, re-opening.
	clk.Advance(5 * time.Second)
	if got := set.State("robot1"); got != BreakerHalfOpen {
		t.Fatalf("state = %v after cooldown, want half-open", got)
	}
	before = inner.calls
	if err := c.Call(ctx, "robot1", "m", nil, nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("probe returned %v", err)
	}
	if inner.calls != before+1 {
		t.Fatal("probe did not reach the network")
	}
	if got := set.State("robot1"); got != BreakerOpen {
		t.Fatalf("state = %v after failed probe, want open", got)
	}

	// Node comes back: the next probe succeeds and the circuit closes.
	inner.down = false
	clk.Advance(5 * time.Second)
	if err := c.Call(ctx, "robot1", "m", nil, nil); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if got := set.State("robot1"); got != BreakerClosed {
		t.Fatalf("state = %v after successful probe, want closed", got)
	}
	snap := reg.Snapshot().Counters
	if snap["transport.breaker_opens"] != 1 || snap["transport.breaker_closes"] != 1 {
		t.Fatalf("opens/closes = %d/%d, want 1/1", snap["transport.breaker_opens"], snap["transport.breaker_closes"])
	}
	if snap["transport.breaker_probes"] != 2 {
		t.Fatalf("breaker_probes = %d, want 2", snap["transport.breaker_probes"])
	}
}

// TestBreakerIgnoresApplicationErrors: deterministic remote errors mean the
// node is reachable — they must never trip the circuit.
func TestBreakerIgnoresApplicationErrors(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	set := NewBreakerSet(1, BreakerConfig{Threshold: 2, Clock: clk})
	c := set.Wrap(callerFunc(func(ctx context.Context, to, method string, req, resp any) error {
		return NewRemoteError(method, "boom")
	}))
	for i := 0; i < 10; i++ {
		if err := c.Call(context.Background(), "robot1", "m", nil, nil); err == nil {
			t.Fatal("expected remote error")
		}
	}
	if got := set.State("robot1"); got != BreakerClosed {
		t.Fatalf("state = %v after remote application errors, want closed", got)
	}
}

// TestBreakerPerDestinationIsolation: one node's open circuit must not
// affect traffic to a healthy node.
func TestBreakerPerDestinationIsolation(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	set := NewBreakerSet(1, BreakerConfig{Threshold: 1, Clock: clk})
	c := set.Wrap(callerFunc(func(ctx context.Context, to, method string, req, resp any) error {
		if to == "dead" {
			return ErrUnreachable
		}
		return nil
	}))
	ctx := context.Background()
	_ = c.Call(ctx, "dead", "m", nil, nil)
	if got := set.State("dead"); got != BreakerOpen {
		t.Fatalf("dead state = %v, want open", got)
	}
	if err := c.Call(ctx, "alive", "m", nil, nil); err != nil {
		t.Fatalf("healthy destination blocked: %v", err)
	}
	if got := set.State("alive"); got != BreakerClosed {
		t.Fatalf("alive state = %v, want closed", got)
	}
	if sn := set.Snapshot(); len(sn) != 2 || sn[0].To != "alive" || sn[1].To != "dead" {
		t.Fatalf("snapshot = %+v", sn)
	}
}

// TestBreakerNilSafety: a nil set wraps to the bare caller and answers
// queries harmlessly, so components thread an optional breaker
// unconditionally.
func TestBreakerNilSafety(t *testing.T) {
	var set *BreakerSet
	inner := &flakyCaller{}
	if got := set.Wrap(inner); got != Caller(inner) {
		t.Fatal("nil set must return the caller unchanged")
	}
	if got := set.State("x"); got != BreakerClosed {
		t.Fatalf("nil set State = %v", got)
	}
	if got := set.Snapshot(); got != nil {
		t.Fatalf("nil set Snapshot = %v", got)
	}
	set.Instrument(metrics.New())
}
