package registry

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
)

// wakeCounter is the real clock, counting the wake-ups a timer wheel arms.
type wakeCounter struct {
	clock.Real
	wakes atomic.Int32
}

func (c *wakeCounter) Until(t time.Time) <-chan time.Time {
	c.wakes.Add(1)
	return c.Real.Until(t)
}

// TestKeepTickScalesWithLease pins the keeper's wheel tick to its lease: a
// node holding only a 30s advertisement must not wake every 10ms (the
// scheduler's default tick) to keep it.
func TestKeepTickScalesWithLease(t *testing.T) {
	if got := keepTick(30 * time.Second); got < time.Second {
		t.Fatalf("keepTick(30s) = %v, want >= 1s", got)
	}
	clk := &wakeCounter{}
	s := Keep(clk, nil, "lease-1", 30*time.Second, func(string, time.Duration) error { return nil })
	time.Sleep(100 * time.Millisecond)
	s.Stop()
	// The wheel arms its first wake-up at one tick; a 10ms tick would have
	// armed about ten by now.
	if got := clk.wakes.Load(); got > 1 {
		t.Fatalf("keeper of a 30s lease armed %d wake-ups in 100ms, want 1", got)
	}
}
