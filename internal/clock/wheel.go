package clock

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Wheel is a hashed timer wheel: a fixed ring of slots advanced by one
// background goroutine. It exists so that a base station keeping tens of
// thousands of leases alive runs one goroutine per wheel instead of one per
// lease.
//
// Each slot is an intrusive doubly linked list of the timers due in it, so
// arming, re-arming and cancelling a timer are O(1) pointer splices that
// allocate nothing and leave no per-slot storage behind. A timer is created
// once with its callback (NewTimer) and re-armed in place (Reset) as often as
// its owner needs: a renewal scheduler keeps one timer per lease for the
// lease's whole life.
//
// Deadlines are quantised up to the wheel's tick: a timer never fires early,
// and fires at the first tick boundary at or after its deadline. Within one
// processed tick timers fire ordered by (deadline, arm order), so firing
// order matches the order a sorted timer list would produce.
//
// The wheel aligns its wake-ups to its own tick grid (anchored at creation
// time), which keeps firing instants deterministic on a Manual clock no
// matter how the test advances it: a single large Advance processes every
// elapsed tick in order.
type Wheel struct {
	clk  Clock
	tick time.Duration

	mu         sync.Mutex
	slots      []*WheelTimer // head of each slot's timer list
	cursor     int           // slot processed by the most recent tick
	lastTick   time.Time     // instant of the most recent processed tick boundary
	seq        uint64
	n          int
	stopped    bool
	processing bool // an advance's callbacks/flush are still running
	// onFlush runs after each wake-up that fired at least one timer, once all
	// fired callbacks have run. A scheduler uses it to coalesce everything
	// that came due in one advance before dispatching work.
	onFlush func()
	// fired is advance's scratch list of the timers one wake-up fired,
	// reused across wake-ups. Only the wheel goroutine touches it.
	fired []firedTimer

	stop chan struct{}
	done chan struct{}
}

// WheelTimer is one timer of a Wheel. It is armed while it sits in a slot
// list; firing or cancelling unlinks it, and Reset links it again.
type WheelTimer struct {
	w          *Wheel
	fn         func()
	deadline   time.Time
	seq        uint64
	rounds     int
	slot       int
	prev, next *WheelTimer
	armed      bool
}

// firedTimer is a fired timer with the arm it fired for. The arm is copied
// under the wheel lock: the callbacks are ordered after the lock is dropped,
// when an owner may already be re-arming the timer.
type firedTimer struct {
	t        *WheelTimer
	deadline time.Time
	seq      uint64
}

// NewWheel starts a wheel on clk with the given tick granularity and slot
// count (defaults: 10ms, 512 slots).
func NewWheel(clk Clock, tick time.Duration, slots int) *Wheel {
	if clk == nil {
		clk = Real{}
	}
	if tick <= 0 {
		tick = 10 * time.Millisecond
	}
	if slots <= 0 {
		slots = 512
	}
	w := &Wheel{
		clk:      clk,
		tick:     tick,
		slots:    make([]*WheelTimer, slots),
		lastTick: clk.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go w.run()
	return w
}

// Len reports how many timers are armed.
//
//lint:allow shipped (test seam: wheel and scheduler tests count armed timers)
func (w *Wheel) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Synced reports whether the wheel has fully processed every tick boundary
// the clock has passed — including the fired timers' callbacks and the flush
// hook. Deterministic tests use it as a barrier between manual advances.
func (w *Wheel) Synced() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		return true
	}
	return !w.processing && w.clk.Now().Sub(w.lastTick) < w.tick
}

// OnFlush registers fn to run after each wake-up that fired timers, once all
// their callbacks have run. Must be set before timers are armed.
func (w *Wheel) OnFlush(fn func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onFlush = fn
}

// NewTimer returns an unarmed timer that runs fn on the wheel goroutine each
// time it fires. Arm it with Reset.
func (w *Wheel) NewTimer(fn func()) *WheelTimer {
	return &WheelTimer{w: w, fn: fn}
}

// Reset arms t to fire at the first tick boundary at or after d from now,
// moving it if it is already armed; a non-positive d fires on the next tick.
// The new arm orders after every earlier one with the same deadline. On a
// stopped wheel t is left unarmed and Reset reports false.
//
// Like time.Timer's Reset, re-arming a timer that fired but whose callback
// has not run yet does not withdraw that callback: it still runs once, and
// the new arm fires again later.
func (t *WheelTimer) Reset(d time.Duration) bool {
	w := t.w
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.resetLocked(t, w.clk.Now(), d)
}

// Rearm is one timer and the delay ResetAll arms it for.
type Rearm struct {
	T *WheelTimer
	D time.Duration
}

// ResetAll re-arms every timer of rs, which must all belong to w, as
// consecutive Reset calls in slice order would, but under one lock
// acquisition and with one clock read: a renewal scheduler re-arms a whole
// batch's timers at once. Arms order by slice position within one deadline.
// On a stopped wheel the timers are left unarmed and ResetAll reports false.
func (w *Wheel) ResetAll(rs []Rearm) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.clk.Now()
	ok := true
	for _, r := range rs {
		ok = w.resetLocked(r.T, now, r.D) && ok
	}
	return ok
}

// ResetNext arms t for the wheel's next firing if a full tick is left
// between that firing and limit, and reports whether one is. The next firing
// is the next tick boundary, or now when the wheel lags behind the clock and
// fires t on its catch-up advance. A renewal scheduler retries a failed
// renewal this way: on the tick grid, and never at or past the lease's end.
// On a stopped wheel t is left unarmed.
func (t *WheelTimer) ResetNext(limit time.Time) bool {
	w := t.w
	w.mu.Lock()
	defer w.mu.Unlock()
	now := w.clk.Now()
	next := w.lastTick.Add(w.tick)
	if next.Add(w.tick).After(limit) || now.Add(w.tick).After(limit) {
		return false
	}
	w.resetLocked(t, now, next.Sub(now))
	return true
}

// Deadline reports the instant t was last armed for: now plus d at its last
// Reset, before quantisation to the tick.
func (t *WheelTimer) Deadline() time.Time {
	t.w.mu.Lock()
	defer t.w.mu.Unlock()
	return t.deadline
}

// resetLocked arms t for d from now; see Reset.
func (w *Wheel) resetLocked(t *WheelTimer, now time.Time, d time.Duration) bool {
	if t.armed {
		w.unlinkLocked(t)
	}
	if w.stopped {
		return false
	}
	t.deadline = now.Add(d)
	t.seq = w.seq
	w.seq++
	// Ticks until due, relative to the last processed boundary: never early,
	// at most one tick late, and at least one tick out.
	due := t.deadline.Sub(w.lastTick)
	ticks := int64((due + w.tick - 1) / w.tick)
	if ticks < 1 {
		ticks = 1
	}
	t.slot = (w.cursor + int(ticks%int64(len(w.slots)))) % len(w.slots)
	t.rounds = int((ticks - 1) / int64(len(w.slots)))
	t.prev = nil
	t.next = w.slots[t.slot]
	if t.next != nil {
		t.next.prev = t
	}
	w.slots[t.slot] = t
	t.armed = true
	w.n++
	return true
}

// Cancel disarms the timer; it reports false if the timer was not armed
// (it already fired, was cancelled, or was never armed). A fired timer's
// callback may still be running.
func (t *WheelTimer) Cancel() bool {
	if t == nil || t.w == nil {
		return false
	}
	t.w.mu.Lock()
	defer t.w.mu.Unlock()
	if !t.armed {
		return false
	}
	t.w.unlinkLocked(t)
	return true
}

// unlinkLocked removes an armed timer from its slot list.
func (w *Wheel) unlinkLocked(t *WheelTimer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		w.slots[t.slot] = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.prev, t.next = nil, nil
	t.armed = false
	w.n--
}

// Stop halts the wheel goroutine. Armed timers never fire; on a Manual clock
// the wheel's single pending After waiter is left behind (Manual has no
// waiter cancellation). Safe to call once.
func (w *Wheel) Stop() {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	w.mu.Unlock()
	close(w.stop)
	<-w.done
}

func (w *Wheel) run() {
	defer close(w.done)
	sleeper, _ := w.clk.(Sleeper)
	for {
		w.mu.Lock()
		next := w.lastTick.Add(w.tick)
		wait := next.Sub(w.clk.Now())
		w.mu.Unlock()
		if wait <= 0 {
			// The clock already passed the next boundary (large manual
			// advance, slow callback): process due ticks without sleeping.
			w.advance()
			continue
		}
		// Pin the absolute boundary when the clock supports it, so a manual
		// Advance racing the re-arm cannot push the wake-up past the grid.
		var wake <-chan time.Time
		if sleeper != nil {
			wake = sleeper.Until(next)
		} else {
			wake = w.clk.After(wait)
		}
		select {
		case <-w.stop:
			return
		case <-wake:
			w.advance()
		}
	}
}

// advance processes every tick boundary the clock has passed, fires due
// timers in (deadline, seq) order and runs the flush hook.
func (w *Wheel) advance() {
	w.mu.Lock()
	steps := int64(w.clk.Now().Sub(w.lastTick) / w.tick)
	fired := w.fired[:0]
	for i := int64(0); i < steps; i++ {
		w.cursor = (w.cursor + 1) % len(w.slots)
		for t := w.slots[w.cursor]; t != nil; {
			next := t.next
			if t.rounds > 0 {
				t.rounds--
			} else {
				w.unlinkLocked(t)
				fired = append(fired, firedTimer{t: t, deadline: t.deadline, seq: t.seq})
			}
			t = next
		}
	}
	w.lastTick = w.lastTick.Add(time.Duration(steps) * w.tick)
	w.processing = len(fired) > 0
	flush := w.onFlush
	w.mu.Unlock()

	if len(fired) == 0 {
		return
	}
	defer func() {
		clear(fired) // drop the references; the backing array is kept
		w.fired = fired[:0]
		w.mu.Lock()
		w.processing = false
		w.mu.Unlock()
	}()
	slices.SortFunc(fired, func(a, b firedTimer) int {
		if c := a.deadline.Compare(b.deadline); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	for _, f := range fired {
		f.t.fn()
	}
	if flush != nil {
		flush()
	}
}
