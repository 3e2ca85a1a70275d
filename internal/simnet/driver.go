package simnet

import (
	"time"

	"repro/internal/clock"
)

// Advance moves a manual clock forward by total in increments of step,
// yielding real time between increments so goroutines woken by one increment
// (renewal scheduler wheels, grantor sweepers, reconcile loops) run before
// the next. It is the scenario driver's "let simulated time pass" primitive.
//
//lint:allow shipped (test harness: the simulated-mobility scenario suites drive simnet)
func Advance(clk *clock.Manual, total, step time.Duration) {
	if step <= 0 {
		step = total
	}
	for elapsed := time.Duration(0); elapsed < total; elapsed += step {
		clk.Advance(step)
		time.Sleep(2 * time.Millisecond) //lint:allow clockcheck (real pause lets goroutines drain between simulated steps)
	}
}

// Drive advances clk by step on every real-time tick until the returned stop
// function is called. Use it when a scenario blocks synchronously on work
// that waits on the simulated clock (e.g. a call whose delivery the
// simulator delays) and no explicit Advance schedule fits.
//
//lint:allow shipped (test harness: the simulated-mobility scenario suites drive simnet)
func Drive(clk *clock.Manual, step time.Duration) (stop func()) {
	halt := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-halt:
				return
			case <-time.After(time.Millisecond): //lint:allow clockcheck (real pacing of the simulated clock)
				clk.Advance(step)
			}
		}
	}()
	return func() {
		close(halt)
		<-done
	}
}
