package tuplespace

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestOutRdIn(t *testing.T) {
	s := New(nil)
	s.Out(Tuple{FStr("ext"), FStr("monitor"), FInt(1)}, 0)
	s.Out(Tuple{FStr("ext"), FStr("access"), FInt(2)}, 0)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}

	// Rd does not consume.
	ctx := context.Background()
	got, err := s.Rd(ctx, Tuple{FStr("ext"), FStr("monitor"), FAny()})
	if err != nil || got[2].I != 1 {
		t.Fatalf("Rd = %v, %v", got, err)
	}
	if s.Len() != 2 {
		t.Error("Rd consumed a tuple")
	}

	// In consumes.
	got, err = s.In(ctx, Tuple{FStr("ext"), FAny(), FAny()})
	if err != nil {
		t.Fatalf("In: %v", err)
	}
	if s.Len() != 1 {
		t.Errorf("Len after In = %d", s.Len())
	}
	// FIFO matching order: the first Out is returned first.
	if got[1].S != "monitor" {
		t.Errorf("In returned %v, want monitor first", got)
	}

	done, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Rd(done, Tuple{FStr("nope")}); err == nil {
		t.Error("template with wrong arity matched")
	}
}

func TestFieldMatching(t *testing.T) {
	tests := []struct {
		tmpl, tuple Tuple
		want        bool
	}{
		{Tuple{FStr("a")}, Tuple{FStr("a")}, true},
		{Tuple{FStr("a")}, Tuple{FStr("b")}, false},
		{Tuple{FAny()}, Tuple{FStr("b")}, true},
		{Tuple{FInt(3)}, Tuple{FInt(3)}, true},
		{Tuple{FInt(3)}, Tuple{FInt(4)}, false},
		{Tuple{FStr("3")}, Tuple{FInt(3)}, false}, // type mismatch
		{Tuple{FBytes([]byte{1})}, Tuple{FBytes([]byte{1})}, true},
		{Tuple{FBytes([]byte{1})}, Tuple{FBytes([]byte{2})}, false},
		{Tuple{FAny(), FAny()}, Tuple{FStr("x")}, false}, // arity
	}
	for i, tt := range tests {
		if got := tt.tmpl.Matches(tt.tuple); got != tt.want {
			t.Errorf("case %d: Matches = %v, want %v", i, got, tt.want)
		}
	}
}

func TestBlockingRdServedByOut(t *testing.T) {
	s := New(nil)
	done := make(chan Tuple, 1)
	go func() {
		got, err := s.Rd(context.Background(), Tuple{FStr("ext"), FAny()})
		if err != nil {
			t.Errorf("Rd: %v", err)
		}
		done <- got
	}()
	time.Sleep(5 * time.Millisecond)
	s.Out(Tuple{FStr("ext"), FStr("monitor")}, 0)
	select {
	case got := <-done:
		if got[1].S != "monitor" {
			t.Errorf("got %v", got)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked Rd not served")
	}
	// Rd must leave the tuple in the space.
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestBlockingInConsumes(t *testing.T) {
	s := New(nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := s.In(context.Background(), Tuple{FStr("x")}); err != nil {
			t.Errorf("In: %v", err)
		}
	}()
	time.Sleep(5 * time.Millisecond)
	s.Out(Tuple{FStr("x")}, 0)
	<-done
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
}

func TestBlockedReadContextCancel(t *testing.T) {
	s := New(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := s.Rd(ctx, Tuple{FStr("never")})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestTupleLeaseExpiry(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	s := New(clk)
	l := s.Out(Tuple{FStr("ephemeral")}, 10*time.Second)
	if l.ID == "" {
		t.Fatal("no lease granted")
	}
	clk.Advance(5 * time.Second)
	if err := s.Renew(l.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second)
	s.ExpireNow()
	if s.Len() != 1 {
		t.Fatal("renewed tuple expired early")
	}
	clk.Advance(5 * time.Second)
	s.ExpireNow()
	if s.Len() != 0 {
		t.Fatal("tuple survived lease expiry")
	}
}

func TestInCancelsTupleLease(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	s := New(clk)
	s.Out(Tuple{FStr("x")}, time.Minute)
	if _, err := s.In(context.Background(), Tuple{FAny()}); err != nil {
		t.Fatalf("In: %v", err)
	}
	if s.grantor.Len() != 0 {
		t.Error("consumed tuple's lease not cancelled")
	}
}

func TestRdAllOrder(t *testing.T) {
	s := New(nil)
	for i := int64(0); i < 5; i++ {
		s.Out(Tuple{FStr("seq"), FInt(i)}, 0)
	}
	s.Out(Tuple{FStr("other")}, 0)
	all := s.RdAll(Tuple{FStr("seq"), FAny()})
	if len(all) != 5 {
		t.Fatalf("RdAll = %d tuples", len(all))
	}
	for i, tu := range all {
		if tu[1].I != int64(i) {
			t.Errorf("order[%d] = %d", i, tu[1].I)
		}
	}
}

func TestCloseWakesWaiters(t *testing.T) {
	s := New(nil)
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Rd(context.Background(), Tuple{FStr("never")})
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond)
	s.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not woken by Close")
	}
	if _, err := s.Rd(context.Background(), Tuple{FAny()}); !errors.Is(err, ErrClosed) {
		t.Errorf("Rd after close: %v", err)
	}
}
