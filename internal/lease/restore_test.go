package lease

import (
	"context"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestRestoreExpiredLeaseFiresImmediately is the crash-replay contract: a
// journal records the grant's absolute deadline, so restoring it after a
// crash longer than the lease window yields an already-expired grant that is
// swept (and its expiry callback fired) on the very next sweep — not a fresh
// window measured from the restart instant.
func TestRestoreExpiredLeaseFiresImmediately(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	g := NewGrantor(clk)

	granted := g.Grant(context.Background(), 10*time.Second, nil)
	deadline := granted.Expiry // what a journal would persist

	// The process crashes; by the time it is back, the deadline has long
	// passed.
	clk.Advance(5 * time.Minute)
	g2 := NewGrantor(clk)
	expired := make(chan ID, 1)
	restored := g2.Restore(granted.ID, deadline, granted.Duration, func(id ID) { expired <- id })

	if restored.ID != granted.ID {
		t.Fatalf("restored ID = %q, want %q", restored.ID, granted.ID)
	}
	if g2.Active(granted.ID) {
		t.Fatal("lease restored from a stale deadline must not be active")
	}
	if n := g2.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow = %d, want 1 immediate expiry", n)
	}
	select {
	case id := <-expired:
		if id != granted.ID {
			t.Fatalf("expired %q, want %q", id, granted.ID)
		}
	default:
		t.Fatal("expiry callback did not fire")
	}
}

// TestRestoreLiveLeaseKeepsRemainingWindow: a short crash restores the lease
// with exactly the remaining time — renewable, and expiring at the original
// instant if nobody renews.
func TestRestoreLiveLeaseKeepsRemainingWindow(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	g := NewGrantor(clk)
	granted := g.Grant(context.Background(), 10*time.Second, nil)

	clk.Advance(4 * time.Second) // crash + quick restart, 6s of lease left
	g2 := NewGrantor(clk)
	g2.Restore(granted.ID, granted.Expiry, granted.Duration, nil)

	if !g2.Active(granted.ID) {
		t.Fatal("restored lease with remaining window must be active")
	}
	dl, ok := g2.Deadline(granted.ID)
	if !ok || !dl.Equal(granted.Expiry) {
		t.Fatalf("Deadline = %v, %v; want %v", dl, ok, granted.Expiry)
	}
	// The original deadline still governs: 6s later it lapses.
	clk.Advance(7 * time.Second)
	if n := g2.ExpireNow(); n != 1 {
		t.Fatalf("ExpireNow = %d, want 1", n)
	}

	// A renewal on a restored lease extends from now, as usual.
	g3 := NewGrantor(clk)
	g3.Restore(granted.ID, clk.Now().Add(2*time.Second), granted.Duration, nil)
	l, err := g3.Renew(context.Background(), granted.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := clk.Now().Add(10 * time.Second); !l.Expiry.Equal(want) {
		t.Fatalf("renewed expiry = %v, want %v", l.Expiry, want)
	}
}
