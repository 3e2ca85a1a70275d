package lease

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestGrantRenewExpire(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	g := NewGrantor(clk)

	expired := make(chan ID, 1)
	l := g.Grant(context.Background(), 10*time.Second, func(id ID) { expired <- id })
	if !g.Active(l.ID) {
		t.Fatal("fresh lease should be active")
	}

	clk.Advance(5 * time.Second)
	if _, err := g.Renew(context.Background(), l.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second)
	if n := g.ExpireNow(); n != 0 {
		t.Fatalf("renewed lease expired early (%d)", n)
	}
	clk.Advance(3 * time.Second)
	if n := g.ExpireNow(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	select {
	case id := <-expired:
		if id != l.ID {
			t.Errorf("expired id %s, want %s", id, l.ID)
		}
	default:
		t.Fatal("expiry callback did not run")
	}
	if g.Active(l.ID) {
		t.Error("expired lease should be inactive")
	}
}

func TestRenewExpiredFails(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	g := NewGrantor(clk)
	l := g.Grant(context.Background(), time.Second, nil)
	clk.Advance(2 * time.Second)
	if _, err := g.Renew(context.Background(), l.ID, time.Second); !errors.Is(err, ErrExpired) {
		t.Fatalf("want ErrExpired, got %v", err)
	}
}

// A renewal arriving exactly at the expiry instant is still valid: the lease
// lapses only strictly after its expiry.
func TestRenewExactlyAtExpiry(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	g := NewGrantor(clk)
	l := g.Grant(context.Background(), 10*time.Second, nil)

	clk.Advance(10 * time.Second) // now == expiry, not past it
	renewed, err := g.Renew(context.Background(), l.ID, 10*time.Second)
	if err != nil {
		t.Fatalf("renew exactly at expiry: %v", err)
	}
	if want := time.Unix(20, 0); !renewed.Expiry.Equal(want) {
		t.Fatalf("new expiry %v, want %v", renewed.Expiry, want)
	}

	clk.Advance(10*time.Second + time.Nanosecond) // now strictly past expiry
	if _, err := g.Renew(context.Background(), l.ID, 10*time.Second); !errors.Is(err, ErrExpired) {
		t.Fatalf("renew past expiry: %v, want ErrExpired", err)
	}
}

func TestCancelSkipsCallback(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	g := NewGrantor(clk)
	called := false
	l := g.Grant(context.Background(), time.Second, func(ID) { called = true })
	if err := g.Cancel(l.ID); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	g.ExpireNow()
	if called {
		t.Error("cancel must not fire expiry callback")
	}
	if err := g.Cancel(l.ID); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("double cancel: %v", err)
	}
	if _, err := g.Renew(context.Background(), l.ID, time.Second); !errors.Is(err, ErrUnknownLease) {
		t.Errorf("renew after cancel: %v", err)
	}
}

func TestGrantorSweeper(t *testing.T) {
	g := NewGrantor(clock.Real{})
	var mu sync.Mutex
	expired := 0
	g.Grant(context.Background(), 5*time.Millisecond, func(ID) {
		mu.Lock()
		expired++
		mu.Unlock()
	})
	g.Start(2 * time.Millisecond)
	defer g.Stop()
	deadline := time.After(time.Second)
	for {
		mu.Lock()
		n := expired
		mu.Unlock()
		if n == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sweeper did not expire lease")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestLeaseIDsUnique(t *testing.T) {
	g := NewGrantor(clock.Real{})
	seen := make(map[ID]bool)
	for i := 0; i < 100; i++ {
		l := g.Grant(context.Background(), time.Minute, nil)
		if seen[l.ID] {
			t.Fatal("duplicate lease ID")
		}
		seen[l.ID] = true
	}
	if g.Len() != 100 {
		t.Errorf("Len = %d", g.Len())
	}
}
