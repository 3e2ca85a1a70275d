// Package clock abstracts time so that lease expiry, mobility simulation and
// revocation tests can run against a deterministic manual clock while
// production code uses the real one.
package clock

import (
	"sync"
	"time"
)

// Clock is the minimal time source used throughout the platform.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// After returns a channel that delivers the then-current time once d has
	// elapsed on this clock.
	After(d time.Duration) <-chan time.Time
}

// Sleeper is an optional Clock extension for waiting until an absolute
// instant. Unlike After, which measures from the moment of the call, Until
// pins the deadline first — so a concurrent Advance on a Manual clock can
// never slip between reading Now and arming the timer. The timer wheel uses
// it to keep its tick grid exact.
type Sleeper interface {
	// Until returns a channel that delivers once the clock reaches t; a
	// deadline already passed delivers immediately.
	Until(t time.Time) <-chan time.Time
}

// Real is a Clock backed by the system clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Until implements Sleeper.
func (Real) Until(t time.Time) <-chan time.Time { return time.After(time.Until(t)) }

// Manual is a deterministic Clock advanced explicitly by tests. The zero
// value is not usable; construct it with NewManual.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []waiter
}

type waiter struct {
	at time.Time
	ch chan time.Time
}

// NewManual returns a Manual clock starting at start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// After implements Clock. The returned channel fires when Advance moves the
// clock past the deadline.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	at := m.now.Add(d)
	if d <= 0 {
		ch <- m.now
		return ch
	}
	m.waiters = append(m.waiters, waiter{at: at, ch: ch})
	return ch
}

// Until implements Sleeper: the channel fires when the clock reaches t. The
// deadline is compared against the clock atomically, so an Advance racing the
// call either satisfies the wait immediately or is seen by a later Advance.
func (m *Manual) Until(t time.Time) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	if !t.After(m.now) {
		ch <- m.now
		return ch
	}
	m.waiters = append(m.waiters, waiter{at: t, ch: ch})
	return ch
}

// Advance moves the clock forward by d, firing any timers whose deadline has
// been reached.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	now := m.now
	var remaining []waiter
	var fired []waiter
	for _, w := range m.waiters {
		if !w.at.After(now) {
			fired = append(fired, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	m.mu.Unlock()
	for _, w := range fired {
		w.ch <- now
	}
}

// Set jumps the clock to t (which must not move backwards) and fires due
// timers.
//
//lint:allow shipped (test seam: wheel and clock tests jump the manual clock to an absolute time)
func (m *Manual) Set(t time.Time) {
	m.mu.Lock()
	if t.Before(m.now) {
		m.mu.Unlock()
		return
	}
	d := t.Sub(m.now)
	m.mu.Unlock()
	m.Advance(d)
}

// PendingTimers reports how many After timers have not yet fired; useful for
// deterministic test synchronisation.
//
//lint:allow shipped (test seam: tests wait until a goroutine has parked on the manual clock)
func (m *Manual) PendingTimers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}
