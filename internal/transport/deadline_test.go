package transport

import (
	"context"
	"errors"
	"testing"
	"time"
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
	parent := WithPeer(context.Background(), "node-7")
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
