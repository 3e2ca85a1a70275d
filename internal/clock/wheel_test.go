package clock

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wheelSeeds returns the seeds the property test runs at: a pinned set plus
// an optional WHEEL_SEED override for replaying a failure.
func wheelSeeds(t *testing.T) []int64 {
	if s := os.Getenv("WHEEL_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad WHEEL_SEED %q: %v", s, err)
		}
		return []int64{seed}
	}
	return []int64{1, 42, 20030901}
}

// TestWheelMatchesSortedListOracle drives a wheel through random seeded
// insert/re-arm/cancel/advance sequences on the manual clock and checks,
// against a naive sorted-list oracle, that every surviving arm fires exactly
// once, in (deadline, arm-order) order, and that no cancelled arm ever
// fires. Re-arms reuse the timer in place, so a stale arm firing under the
// new one would show up as an extra or misordered fire.
func TestWheelMatchesSortedListOracle(t *testing.T) {
	for _, seed := range wheelSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runWheelOracle(t, seed)
		})
	}
}

func runWheelOracle(t *testing.T, seed int64) {
	const (
		tick  = 10 * time.Millisecond
		slots = 32 // small, so long delays exercise the rounds counter
		ops   = 600
	)
	clk := NewManual(time.Unix(0, 0))
	w := NewWheel(clk, tick, slots)
	defer w.Stop()

	var mu sync.Mutex
	var fired []int // timer ids in fire order

	rng := rand.New(rand.NewSource(seed))
	type arm struct {
		id       int
		deadline time.Time
	}
	var timers []*WheelTimer // by id
	var all []arm            // every arm still expected to fire, in arm order
	live := map[int]int{}    // timer id -> index in all of its armed arm
	cancelled := map[int]bool{}

	for op := 0; op < ops; op++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			// Arm a new timer with a delay up to three full wheel
			// revolutions.
			d := time.Duration(rng.Int63n(int64(3 * slots * tick)))
			id := len(timers)
			tm := w.NewTimer(func() {
				mu.Lock()
				fired = append(fired, id)
				mu.Unlock()
			})
			timers = append(timers, tm)
			tm.Reset(d)
			live[id] = len(all)
			all = append(all, arm{id: id, deadline: clk.Now().Add(d)})
		case r < 0.53 && len(timers) > 0:
			// Re-arm a batch of distinct random timers with one ResetAll,
			// the renewal scheduler's settle: arms order by slice position.
			// Cancel first, as for a single re-arm below.
			var batch []Rearm
			for _, id := range rng.Perm(len(timers))[:1+rng.Intn(min(5, len(timers)))] {
				if i, ok := live[id]; ok && timers[id].Cancel() {
					cancelled[i] = true
				}
				d := time.Duration(rng.Int63n(int64(3 * slots * tick)))
				batch = append(batch, Rearm{T: timers[id], D: d})
				live[id] = len(all)
				all = append(all, arm{id: id, deadline: clk.Now().Add(d)})
			}
			w.ResetAll(batch)
		case r < 0.6 && len(timers) > 0:
			// Re-arm a random timer in place. Cancel first so its return
			// value settles whether the previous arm still fires: true
			// withdraws it, false means it already fired.
			id := rng.Intn(len(timers))
			if i, ok := live[id]; ok && timers[id].Cancel() {
				cancelled[i] = true
			}
			d := time.Duration(rng.Int63n(int64(3 * slots * tick)))
			timers[id].Reset(d)
			live[id] = len(all)
			all = append(all, arm{id: id, deadline: clk.Now().Add(d)})
		case r < 0.75 && len(timers) > 0:
			// Cancel a random timer. Cancel's return value is the truth:
			// true means its arm will never fire, false means it already
			// did (or was cancelled before) and stays in the oracle.
			id := rng.Intn(len(timers))
			if i, ok := live[id]; ok && timers[id].Cancel() {
				cancelled[i] = true
				delete(live, id)
			}
		default:
			clk.Advance(time.Duration(rng.Int63n(int64(5 * tick))))
		}
	}

	// Drain: advance far past the last deadline, then wait for the wheel
	// goroutine to deliver everything.
	clk.Advance(time.Duration(4*slots) * tick)
	var oracle []arm
	for i, a := range all {
		if !cancelled[i] {
			oracle = append(oracle, a)
		}
	}
	sort.SliceStable(oracle, func(i, j int) bool {
		return oracle[i].deadline.Before(oracle[j].deadline)
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(fired)
		mu.Unlock()
		if n >= len(oracle) || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
		clk.Advance(tick) // nudge, in case a re-arm raced the drain
	}

	mu.Lock()
	defer mu.Unlock()
	if len(fired) != len(oracle) {
		t.Fatalf("fired %d arms, oracle expects %d", len(fired), len(oracle))
	}
	for i, want := range oracle {
		if got := fired[i]; got != want.id {
			t.Fatalf("fire order diverges at %d: got timer %d, oracle says %d (deadline %v)",
				i, got, want.id, want.deadline)
		}
	}
	if got := w.Len(); got != 0 {
		t.Fatalf("wheel still holds %d timers after drain", got)
	}
}

// TestWheelCancelAndStopSemantics pins the edge cases the scheduler relies
// on: Cancel is O(1) truth, a fired timer re-arms in place, a stopped wheel
// never fires, and the flush hook runs after a batch of fires.
func TestWheelCancelAndStopSemantics(t *testing.T) {
	clk := NewManual(time.Unix(0, 0))
	w := NewWheel(clk, 10*time.Millisecond, 8)

	var mu sync.Mutex
	firedA := false
	flushes := 0
	w.OnFlush(func() {
		mu.Lock()
		flushes++
		mu.Unlock()
	})

	a := w.NewTimer(func() {
		mu.Lock()
		firedA = true
		mu.Unlock()
	})
	a.Reset(30 * time.Millisecond)
	b := w.NewTimer(func() { t.Error("cancelled timer fired") })
	if b.Cancel() {
		t.Fatal("Cancel of a never-armed timer reported true")
	}
	b.Reset(50 * time.Millisecond)
	if !b.Cancel() {
		t.Fatal("Cancel of an armed timer reported false")
	}
	if b.Cancel() {
		t.Fatal("second Cancel reported true")
	}

	clk.Advance(40 * time.Millisecond)
	waitUntilWheel(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firedA && flushes == 1
	})
	if a.Cancel() {
		t.Fatal("Cancel of a fired timer reported true")
	}

	// The fired timer re-arms in place and fires again.
	mu.Lock()
	firedA = false
	mu.Unlock()
	if !a.Reset(20 * time.Millisecond) {
		t.Fatal("Reset on a running wheel reported false")
	}
	if got := w.Len(); got != 1 {
		t.Fatalf("Len = %d after re-arm, want 1", got)
	}
	clk.Advance(20 * time.Millisecond)
	waitUntilWheel(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firedA && flushes == 2
	})

	w.Stop()
	c := w.NewTimer(func() { t.Error("timer armed on stopped wheel fired") })
	if c.Reset(10 * time.Millisecond) {
		t.Fatal("Reset on a stopped wheel reported true")
	}
	if c.Cancel() {
		t.Fatal("timer armed on a stopped wheel should stay unarmed")
	}
	clk.Advance(time.Second)
	time.Sleep(5 * time.Millisecond)
	if got := w.Len(); got != 0 {
		t.Fatalf("stopped wheel reports %d armed timers", got)
	}
}

func waitUntilWheel(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

// TestWheelRearmAllocsNothing pins the allocation budget of the renewal hot
// path's timer work: re-arming an armed timer, and re-arming one that fired,
// allocate nothing.
func TestWheelRearmAllocsNothing(t *testing.T) {
	clk := NewManual(time.Unix(0, 0))
	w := NewWheel(clk, 10*time.Millisecond, 64)
	defer w.Stop()
	tm := w.NewTimer(func() {})
	tm.Reset(time.Second)
	if got := testing.AllocsPerRun(1000, func() {
		tm.Reset(time.Duration(1+len(w.slots)) * time.Second)
	}); got != 0 {
		t.Errorf("re-arming an armed timer: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		tm.Cancel()
		tm.Reset(time.Second)
	}); got != 0 {
		t.Errorf("cancel and re-arm: %v allocs, want 0", got)
	}
	batch := []Rearm{{T: tm, D: time.Second}, {T: w.NewTimer(func() {}), D: 2 * time.Second}}
	if got := testing.AllocsPerRun(1000, func() {
		w.ResetAll(batch)
	}); got != 0 {
		t.Errorf("re-arming a batch: %v allocs, want 0", got)
	}
}

// TestWheelResetAllReadsTheClockOnce: a batch re-arm reads the clock once
// and takes the lock once, so every timer of the batch gets the same base
// instant, and a stopped wheel leaves every timer of the batch unarmed.
func TestWheelResetAllReadsTheClockOnce(t *testing.T) {
	clk := &countingClock{Manual: NewManual(time.Unix(0, 0))}
	w := NewWheel(clk, 10*time.Millisecond, 64)
	a, b := w.NewTimer(func() {}), w.NewTimer(func() {})
	b.Reset(time.Hour)
	before := clk.nows.Load()
	if !w.ResetAll([]Rearm{{T: a, D: time.Second}, {T: b, D: time.Second}}) {
		t.Fatal("ResetAll on a running wheel reported false")
	}
	if got := clk.nows.Load() - before; got != 1 {
		t.Fatalf("ResetAll of 2 timers read the clock %d times, want 1", got)
	}
	if a.deadline != b.deadline || a.seq >= b.seq {
		t.Fatalf("batch arms: deadlines %v/%v seqs %d/%d, want equal deadlines in slice order", a.deadline, b.deadline, a.seq, b.seq)
	}
	w.Stop()
	if w.ResetAll([]Rearm{{T: a, D: time.Second}, {T: b, D: time.Second}}) || a.armed || b.armed {
		t.Fatal("ResetAll on a stopped wheel armed a timer or reported true")
	}
}

// countingClock counts Now calls.
type countingClock struct {
	*Manual
	nows atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.nows.Add(1)
	return c.Manual.Now()
}

// TestWheelResetNextStaysInsideLimit: ResetNext arms a timer for the next
// tick boundary, counted from the last processed tick rather than from now,
// and only while a full tick is left between that boundary and the limit.
func TestWheelResetNextStaysInsideLimit(t *testing.T) {
	start := time.Unix(0, 0)
	clk := NewManual(start)
	w := NewWheel(clk, time.Second, 64)
	var fired atomic.Int64
	tm := w.NewTimer(func() { fired.Add(1) })
	limit := start.Add(4 * time.Second)

	clk.Advance(1500 * time.Millisecond) // the 1s boundary is processed
	waitUntilWheel(t, w.Synced)
	for i, at := range []time.Duration{2 * time.Second, 3 * time.Second} {
		if !tm.ResetNext(limit) {
			t.Fatalf("ResetNext #%d refused with a tick left before the limit", i)
		}
		if got := tm.Deadline(); !got.Equal(start.Add(at)) {
			t.Fatalf("ResetNext #%d armed for %v, want %v", i, got.Sub(start), at)
		}
		clk.Set(start.Add(at))
		waitUntilWheel(t, func() bool { return fired.Load() == int64(i+1) })
	}
	// At 3s the next boundary is 4s: no tick is left before the limit.
	if tm.ResetNext(limit) || tm.armed {
		t.Fatal("ResetNext armed a timer with no tick left before the limit")
	}
	w.Stop()
	if tm.ResetNext(start.Add(time.Hour)); tm.armed {
		t.Fatal("ResetNext armed a timer on a stopped wheel")
	}
}
