package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// closedWithin reports whether ch closes within d.
func closedWithin(ch <-chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

func (c *CallDeadline) isArmed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.armed != nil
}

func TestCallDeadlineDoneClosesAtDeadline(t *testing.T) {
	start := time.Now()
	c := WithCallDeadline(context.Background(), 20*time.Millisecond)
	defer c.Cancel()
	if d, ok := c.Deadline(); !ok || d.Before(start.Add(20*time.Millisecond)) || d.After(time.Now().Add(20*time.Millisecond)) {
		t.Fatalf("Deadline() = %v, %v; want about 20ms from the start", d, ok)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	if c.isArmed() {
		t.Fatal("Deadline and Err armed a timer")
	}
	if !closedWithin(c.Done(), 2*time.Second) {
		t.Fatal("Done did not close at the deadline")
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("Done closed after %v, before the deadline", elapsed)
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after the deadline = %v, want DeadlineExceeded", err)
	}
	c.Cancel()
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after a late Cancel = %v, want DeadlineExceeded to stick", err)
	}
}

func TestCallDeadlineErrWithoutDone(t *testing.T) {
	c := WithCallDeadline(context.Background(), 5*time.Millisecond)
	defer c.Cancel()
	time.Sleep(10 * time.Millisecond)
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err past the deadline, Done never called = %v, want DeadlineExceeded", err)
	}
	if c.isArmed() {
		t.Fatal("Err armed a timer")
	}
	c.Cancel()
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err after Cancel = %v, want the observed DeadlineExceeded to stick", err)
	}
	if !closedWithin(c.Done(), time.Second) {
		t.Fatal("Done requested after the deadline is not closed")
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err once armed = %v, want DeadlineExceeded", err)
	}
}

func TestCallDeadlineCancelBeforeDone(t *testing.T) {
	c := WithCallDeadline(context.Background(), time.Hour)
	c.Cancel()
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after Cancel = %v, want Canceled", err)
	}
	if !closedWithin(c.Done(), time.Second) {
		t.Fatal("Done requested after Cancel is not closed")
	}
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err once armed = %v, want Canceled", err)
	}
	c.Cancel() // idempotent
}

func TestCallDeadlineCancelAfterDone(t *testing.T) {
	c := WithCallDeadline(context.Background(), time.Hour)
	done := c.Done()
	if !c.isArmed() {
		t.Fatal("Done did not arm the timer")
	}
	if closedWithin(done, 10*time.Millisecond) {
		t.Fatal("Done closed an hour early")
	}
	c.Cancel()
	if !closedWithin(done, time.Second) {
		t.Fatal("Cancel did not close Done")
	}
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after Cancel = %v, want Canceled", err)
	}
}

func TestCallDeadlineParentAlreadyDone(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	cancel()
	c := WithCallDeadline(parent, time.Hour)
	defer c.Cancel()
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err under a canceled parent = %v, want Canceled", err)
	}
	if !closedWithin(c.Done(), time.Second) {
		t.Fatal("Done under a canceled parent is not closed")
	}
}

func TestCallDeadlineParentCanceledAfterDone(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	c := WithCallDeadline(parent, time.Hour)
	defer c.Cancel()
	done := c.Done()
	cancel()
	if !closedWithin(done, time.Second) {
		t.Fatal("parent cancellation did not close Done")
	}
	if err := c.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want the parent's Canceled", err)
	}
}

func TestCallDeadlineParentEarlierDeadline(t *testing.T) {
	parent, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	pd, _ := parent.Deadline()
	c := WithCallDeadline(parent, time.Hour)
	defer c.Cancel()
	if d, ok := c.Deadline(); !ok || !d.Equal(pd) {
		t.Fatalf("Deadline() = %v, %v; want the parent's %v", d, ok, pd)
	}
	if !closedWithin(c.Done(), 2*time.Second) {
		t.Fatal("Done did not close at the parent's deadline")
	}
	if err := c.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want DeadlineExceeded", err)
	}

	// A lazy parent that nobody armed expires its child's Err just the same.
	lazy := WithCallDeadline(context.Background(), 5*time.Millisecond)
	defer lazy.Cancel()
	child := WithCallDeadline(lazy, time.Hour)
	defer child.Cancel()
	time.Sleep(10 * time.Millisecond)
	if err := child.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err under an expired lazy parent = %v, want DeadlineExceeded", err)
	}
}

func TestCallDeadlineValuesAndDerivedContexts(t *testing.T) {
	parent := withBoxedPeer(context.Background(), boxPeer("node-7"))
	c := WithCallDeadline(parent, time.Hour)
	if got := Peer(c); got != "node-7" {
		t.Fatalf("Peer through an unarmed deadline = %q", got)
	}
	child, cancelChild := context.WithCancel(c)
	defer cancelChild()
	if got := Peer(child); got != "node-7" {
		t.Fatalf("Peer through an armed deadline = %q", got)
	}
	c.Cancel()
	if !closedWithin(child.Done(), time.Second) {
		t.Fatal("Cancel did not reach a derived context")
	}
	if err := child.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("derived Err = %v, want Canceled", err)
	}
}

// TestCallDeadlineAllocs pins what an unarmed call deadline costs: the
// context itself, and no timer.
func TestCallDeadlineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c := WithCallDeadline(ctx, time.Hour)
		_, _ = c.Deadline()
		_ = c.Err()
		c.Cancel()
	})
	if allocs != 1 {
		t.Fatalf("unarmed call deadline: %.0f allocs, want 1", allocs)
	}
}

// TestCallDeadlineCarriesSpanAndPeer checks the values a call context holds
// inline: the span context from WithCallSpan, and the peer a fabric stamps
// when it serves the call, once.
func TestCallDeadlineCarriesSpanAndPeer(t *testing.T) {
	sc := trace.SpanContext{TraceID: "t1", SpanID: "s1", Flags: trace.FlagSampleKnown}
	parent := withBoxedPeer(context.Background(), boxPeer("outer"))
	c := WithCallSpan(parent, time.Hour, sc)
	defer c.Cancel()
	if got, ok := trace.FromContext(c); !ok || got != sc {
		t.Fatalf("FromContext = %+v, %v; want %+v", got, ok, sc)
	}
	if got := Peer(c); got != "outer" {
		t.Fatalf("Peer before the call is served = %q, want the parent's", got)
	}
	if !c.serve("base-1") {
		t.Fatal("a fresh call context refused to serve")
	}
	if got := Peer(c); got != "base-1" {
		t.Fatalf("Peer while served = %q, want base-1", got)
	}
	if c.serve("base-2") {
		t.Fatal("a call context served a second call")
	}
	if got := Peer(c); got != "base-1" {
		t.Fatalf("a refused second serve changed Peer to %q", got)
	}
	// Armed, the context still answers its own values first.
	child, cancel := context.WithCancel(c)
	defer cancel()
	if got, ok := trace.FromContext(child); !ok || got != sc || Peer(child) != "base-1" {
		t.Fatalf("derived context lost the folded values: %+v %v %q", got, ok, Peer(child))
	}
	if plain := WithCallDeadline(context.Background(), time.Hour); func() bool { _, ok := trace.FromContext(plain); return ok }() {
		t.Fatal("WithCallDeadline carries a span context")
	}
}

// TestCallDeadlineRecyclesOnlyItsOwnBody pins the body hand-back: a body is
// left only while a fabric serves the context, only once, and recycled only
// when it is the body the fabric read.
func TestCallDeadlineRecyclesOnlyItsOwnBody(t *testing.T) {
	e := wire.GetEncoder()
	e.Frame(wireResp{Msg: "x"})
	unserved := WithCallDeadline(context.Background(), time.Hour)
	if unserved.keepBody(e) {
		t.Fatal("a context no fabric serves kept a body")
	}
	c := WithCallDeadline(context.Background(), time.Hour)
	c.serve("p")
	if !c.keepBody(e) {
		t.Fatal("a served context refused the body")
	}
	if c.keepBody(wire.GetEncoder()) {
		t.Fatal("a served context kept a second body")
	}
	other := append([]byte(nil), e.Data()...)
	c.served(other)
	if c.keepBody(e) {
		t.Fatal("a context kept a body after its call was served")
	}
	if !sameBytes(e.Data(), e.Data()) || sameBytes(e.Data(), other) || sameBytes(nil, nil) {
		t.Fatal("sameBytes compares memory, not contents")
	}
}

// TestServerCallWithoutBudget: a TCP request that carried no budget gets a
// context with no deadline that still holds the peer and span context.
func TestServerCallWithoutBudget(t *testing.T) {
	sc := trace.SpanContext{TraceID: "t", SpanID: "s"}
	c := serverCall(sc, "10.0.0.1:5", 0)
	if _, ok := c.Deadline(); ok {
		t.Fatal("a request without budget has a deadline")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if Peer(c) != "10.0.0.1:5" {
		t.Fatalf("Peer = %q", Peer(c))
	}
	if got, _ := trace.FromContext(c); got != sc {
		t.Fatalf("span context = %+v", got)
	}
	select {
	case <-c.Done():
		t.Fatal("Done closed without a deadline or Cancel")
	default:
	}
	c.Cancel()
	if !closedWithin(c.Done(), time.Second) || !errors.Is(c.Err(), context.Canceled) {
		t.Fatal("Cancel did not end a context without deadline")
	}
	if d, ok := serverCall(sc, "", 50*time.Millisecond).Deadline(); !ok || time.Until(d) > 50*time.Millisecond {
		t.Fatalf("budgeted request deadline = %v, %v", d, ok)
	}
}

// TestInProcCallUnderCallDeadlineAllocs pins an in-proc echo round trip run
// under a CallDeadline at five allocations: the deadline (which also stamps
// the peer), the request body, the strings the server decodes and the
// handler builds, and the caller's decoded string. The server's boxes are
// pooled, and the response body goes back to the pool once decoded. Under a
// plain context the same call pays a peer wrapper and a response body more.
func TestInProcCallUnderCallDeadlineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	fabric := NewInProc()
	stop, _ := fabric.Serve("b", newEchoMux())
	defer stop()
	caller := fabric.Node("a")
	req := &wireReq{Msg: "ab", N: 2}
	var resp wireResp
	call := func(ctx context.Context) {
		if err := caller.Call(ctx, "b", "echo", req, &resp); err != nil || resp.Msg != "abab" {
			t.Fatalf("echo = %q, %v", resp.Msg, err)
		}
	}
	deadline := testing.AllocsPerRun(500, func() {
		c := WithCallDeadline(context.Background(), time.Hour)
		call(c)
		c.Cancel()
	})
	plain := testing.AllocsPerRun(500, func() { call(context.Background()) })
	if deadline != 5 || plain != 6 {
		t.Fatalf("echo round trip: %.0f allocs under a CallDeadline (want 5), %.0f under a plain context (want 6)", deadline, plain)
	}
}
