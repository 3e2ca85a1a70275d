package registry

import (
	"time"

	"repro/internal/clock"
	"repro/internal/lease"
	"repro/internal/metrics"
)

// Keep keeps one lookup lease alive from the holder side until the returned
// scheduler is stopped: a node's registration (renew is Client.Renew) or a
// base's watch (renew is Client.RenewWatch). renew(id, dur) runs at half of
// each dur window. A failed renewal is retried on each later tick of the
// keeper's wheel while the lease has a tick left (up to 7 retries); an
// ErrUnknownLease answer is final. Once the lease is lost, lost (nil-safe)
// runs with the last error, on the keeper's worker: it must not Stop the
// keeper itself. reg (nil-safe) receives the scheduler's lease.* series,
// lease.renew_retries and lease.renew_failures among them.
func Keep(clk clock.Clock, reg *metrics.Registry, id string, dur time.Duration, renew func(id string, dur time.Duration) error, lost func(error)) *lease.Scheduler {
	s := lease.NewScheduler(clk, lease.SchedulerConfig{
		Tick:     keepTick(dur),
		Fraction: 0.5,
		Renew: func(_ string, items []lease.BatchItem, results []lease.BatchResult) error {
			if err := renew(string(items[0].ID), dur); err != nil {
				return err
			}
			results[0].ID = items[0].ID
			return nil
		},
		OnNodeFail: func(_ string, err error) {
			if lost != nil {
				lost(err)
			}
		},
	})
	s.Instrument(reg)
	s.Add("", lease.ID(id), "", dur)
	return s
}

// keepTick is the wheel granularity of a keeper for a dur lease. The wheel
// wakes every tick even when idle, so the tick scales with the lease: a
// keeper wakes 16 times per window, and its renewal lands on the 8th tick.
func keepTick(dur time.Duration) time.Duration {
	return max(dur/16, time.Millisecond)
}
