package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/registry"
	"repro/internal/sign"
)

// TestNoGoroutineLeaksOnTeardown spins up the full cluster (lookup, base,
// receiver, renewal schedulers, the node's advertisement and the base's
// lookup watch, sweepers), exercises it, tears it down, and checks that the
// goroutine count returns to its baseline — every background goroutine in
// the platform must be stoppable and stopped.
func TestNoGoroutineLeaksOnTeardown(t *testing.T) {
	baseline := runtime.NumGoroutine()

	for round := 0; round < 3; round++ {
		c := newCluster(t, 100*time.Millisecond)
		if err := c.base.AddExtension(noopExt("policy", 1)); err != nil {
			t.Fatal(err)
		}
		if err := c.base.AdaptNode("robot1", "robot1"); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "install", func() bool { return c.receiver.Has("policy") })
		if _, err := c.base.WatchLookup(&registry.Client{Caller: c.fabric.Node("base-1"), Addr: "lookup-1"}, time.Minute); err != nil {
			t.Fatal(err)
		}
		stopAdv, err := c.receiver.Advertise(&registry.Client{Caller: c.fabric.Node("robot1"), Addr: "lookup-1"}, time.Minute, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.stops = append(c.stops, stopAdv)
		c.close()
	}

	// Allow stopped goroutines to unwind.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
		baseline, runtime.NumGoroutine(), buf[:n])
}

// slowPushCaller parks every apply until release is closed, so a test can
// interleave Release/Close with an in-flight push, and counts renewal
// attempts arriving afterwards.
type slowPushCaller struct {
	installing chan struct{} // receives once per apply call, before parking
	release    chan struct{}
	renews     atomic.Int32
}

func (c *slowPushCaller) Call(_ context.Context, _, method string, req, resp any) error {
	switch method {
	case MethodApplyBatch:
		c.installing <- struct{}{}
		<-c.release
		out := ApplyBatchResp{}
		for i := range req.(ApplyBatchReq).Installs {
			out.Installs = append(out.Installs, InstallItemResp{LeaseID: "L" + string(rune('1'+i))})
		}
		*(resp.(*ApplyBatchResp)) = out
	case MethodRenewE:
		c.renews.Add(1)
		*(resp.(*RenewExtResp)) = RenewExtResp{DurMillis: time.Minute.Milliseconds()}
	case MethodRenewBatch:
		c.renews.Add(1)
		out := RenewBatchResp{}
		for range req.(*RenewBatchReq).Items {
			out.Items = append(out.Items, RenewItemResp{DurMillis: time.Minute.Milliseconds()})
		}
		*(resp.(*RenewBatchResp)) = out
	}
	return nil
}

// TestNoRenewerLeakWhenNodeDepartsMidPush pins the trackGrant guard: when the
// node is released — or the whole base closed — while its install RPC is
// still in flight, the push must NOT schedule a renewal afterwards. A wheel
// entry for an untracked node would leak: nobody would ever cancel it, and it
// would renew the abandoned lease forever.
func TestNoRenewerLeakWhenNodeDepartsMidPush(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(b *Base)
	}{
		{"release", func(b *Base) { b.Release("robot1") }},
		{"close", func(b *Base) { b.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			clk := clock.NewManual(time.Unix(1000, 0))
			signer, err := sign.NewSigner("hall-1")
			if err != nil {
				t.Fatal(err)
			}
			caller := &slowPushCaller{
				installing: make(chan struct{}),
				release:    make(chan struct{}),
			}
			b, err := NewBase(BaseConfig{
				Name:          "hall-1",
				Addr:          "base-1",
				Caller:        caller,
				Signer:        signer,
				Clock:         clk,
				LeaseDur:      time.Minute,
				RenewFraction: 0.5,
				CallTimeout:   time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if err := b.AddExtension(noopExt("policy", 1)); err != nil {
				t.Fatal(err)
			}

			adaptDone := make(chan error, 1)
			go func() { adaptDone <- b.AdaptNode("robot1", "robot1") }()
			<-caller.installing // push is in flight, parked in the caller
			tc.cut(b)           // node departs / base closes mid-push
			close(caller.release)
			if err := <-adaptDone; err != nil {
				t.Fatalf("adapt: %v", err)
			}

			if got := b.Adapted(); len(got) != 0 {
				t.Fatalf("adapted = %v after %s mid-push", got, tc.name)
			}
			// If a renewer slipped through, it would wake at t+30s and renew
			// the abandoned lease. Advance well past several windows.
			for i := 0; i < 10; i++ {
				clk.Advance(30 * time.Second)
				time.Sleep(5 * time.Millisecond)
			}
			if got := caller.renews.Load(); got != 0 {
				t.Fatalf("%d renewals after %s mid-push: leaked renewer", got, tc.name)
			}
			if got := b.ScheduledRenewals(); got != 0 {
				t.Fatalf("%d wheel entries after %s mid-push: leaked schedule", got, tc.name)
			}
			// The timer wheel's run loop keeps (at most) one waiter armed on a
			// Manual clock; anything beyond that is a leaked renewal schedule.
			if clk.PendingTimers() > 1 {
				t.Fatalf("%d timers pending: leaked renewer schedule", clk.PendingTimers())
			}

			deadline := time.Now().Add(3 * time.Second)
			for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline+2 {
				runtime.Gosched()
				time.Sleep(10 * time.Millisecond)
			}
			if now := runtime.NumGoroutine(); now > baseline+2 {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutines leaked mid-push: baseline %d, now %d\n%s", baseline, now, buf[:n])
			}
		})
	}
}

// TestNoScheduleLeakWhenNodeDepartsMidBatchedPush is the batched-RPC twin of
// the mid-push leak test: a multi-extension adapt rides one midas.applyBatch
// call, and cutting the node while that batch is in flight must leave no
// wheel entry behind — none of the batch's leases may ever be renewed.
func TestNoScheduleLeakWhenNodeDepartsMidBatchedPush(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(b *Base)
	}{
		{"release", func(b *Base) { b.Release("robot1") }},
		{"close", func(b *Base) { b.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewManual(time.Unix(1000, 0))
			signer, err := sign.NewSigner("hall-1")
			if err != nil {
				t.Fatal(err)
			}
			caller := &slowPushCaller{
				installing: make(chan struct{}),
				release:    make(chan struct{}),
			}
			b, err := NewBase(BaseConfig{
				Name:          "hall-1",
				Addr:          "base-1",
				Caller:        caller,
				Signer:        signer,
				Clock:         clk,
				LeaseDur:      time.Minute,
				RenewFraction: 0.5,
				CallTimeout:   time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			// Two extensions make the adapt take the batched path.
			if err := b.AddExtension(noopExt("policy", 1)); err != nil {
				t.Fatal(err)
			}
			if err := b.AddExtension(noopExt("audit", 1)); err != nil {
				t.Fatal(err)
			}

			adaptDone := make(chan error, 1)
			go func() { adaptDone <- b.AdaptNode("robot1", "robot1") }()
			<-caller.installing // the applyBatch is in flight, parked
			tc.cut(b)           // node departs / base closes mid-batch
			close(caller.release)
			if err := <-adaptDone; err != nil {
				t.Fatalf("adapt: %v", err)
			}

			if got := b.Adapted(); len(got) != 0 {
				t.Fatalf("adapted = %v after %s mid-batch", got, tc.name)
			}
			if got := b.ScheduledRenewals(); got != 0 {
				t.Fatalf("%d wheel entries after %s mid-batch: leaked schedule", got, tc.name)
			}
			for i := 0; i < 10; i++ {
				clk.Advance(30 * time.Second)
				time.Sleep(5 * time.Millisecond)
			}
			if got := caller.renews.Load(); got != 0 {
				t.Fatalf("%d renewals after %s mid-batch: leaked schedule", got, tc.name)
			}
			if clk.PendingTimers() > 1 {
				t.Fatalf("%d timers pending: leaked renewer schedule", clk.PendingTimers())
			}
		})
	}
}
