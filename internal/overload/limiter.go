// Package overload is the server-side overload control plane: a fixed
// concurrency cap with bounded per-priority queues, deadline-aware shedding,
// and per-peer token buckets, fronting the Handler side of every RPC fabric
// (in-proc, simnet, TCP — they all deliver through transport.Handler.Handle,
// so one wrapper covers all three).
//
// Requests beyond the cap wait in one bounded FIFO per priority class,
// granted strictly keepalive > mutation > read, so a renewal storm cuts the
// line past a dashboard's reads. Requests that overflow their class queue are
// shed immediately with transport.ErrOverloaded carrying a retry-after hint,
// and requests whose deadline lapses before a slot frees are dropped without
// invoking the handler — work for a caller that already gave up is the purest
// waste an overloaded server can cut.
//
// The cap is fixed rather than adapted to queue delay: a slow handler is not
// a saturated server, and a controller that halves the cap under slow
// handlers overflows the keepalive queue it exists to protect.
package overload

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/transport"
)

// Config tunes a Limiter. The zero value gets serviceable defaults.
type Config struct {
	// Limit caps the requests the wrapped handler runs at once (default 256).
	Limit int
	// QueueDepth bounds each priority class's wait queue; an arrival past it
	// is shed (default 128).
	QueueDepth int
	// RetryAfter is the hint attached to queue-overflow sheds (default 250ms).
	RetryAfter time.Duration
}

// waiter is one queued request. ready is closed by the granter after it has
// transferred an inflight slot to the waiter; granted disambiguates the race
// between a grant and the waiter's own cancellation.
type waiter struct {
	class   Class
	ready   chan struct{}
	granted bool
}

// limiterMetrics mirrors the limiter's internal counters into a registry;
// nil-safe no-ops until Instrument.
type limiterMetrics struct {
	sheds    [numClasses]*metrics.Counter
	expired  *metrics.Counter
	admits   *metrics.Counter
	inflight *metrics.Gauge
	queued   *metrics.Gauge
}

// Limiter is the concurrency limiter. Acquire blocks until the request is
// admitted, sheds it, or its context dies; every successful Acquire must be
// paired with exactly one Release.
type Limiter struct {
	cfg Config

	mu       sync.Mutex
	inflight int
	queues   [numClasses][]*waiter
	queued   int

	sheds    [numClasses]uint64
	expired  uint64
	admitted uint64

	m limiterMetrics
}

// NewLimiter returns a Limiter with cfg's gaps filled by defaults.
func NewLimiter(cfg Config) *Limiter {
	if cfg.Limit <= 0 {
		cfg.Limit = 256
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 250 * time.Millisecond
	}
	return &Limiter{cfg: cfg}
}

// Instrument mirrors shed/drop counters and the inflight/queue gauges into
// reg. A nil limiter or nil reg is a no-op.
func (l *Limiter) Instrument(reg *metrics.Registry) {
	if l == nil || reg == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for c := Class(0); c < numClasses; c++ {
		l.m.sheds[c] = reg.Counter("overload.sheds|class=" + c.String())
	}
	l.m.expired = reg.Counter("overload.expired_drops")
	l.m.admits = reg.Counter("overload.admitted")
	l.m.inflight = reg.Gauge("overload.inflight")
	l.m.queued = reg.Gauge("overload.queued")
}

// Acquire admits one request of the given class, blocking in the class's
// bounded queue while the server is at its cap. It returns nil when the
// caller owns an inflight slot (pair with Release), transport.ErrOverloaded
// (with the retry-after hint) when the request is shed, or a wrapped context
// error when the request's deadline died before a slot freed.
func (l *Limiter) Acquire(ctx context.Context, class Class) error {
	if l == nil {
		return nil
	}
	// Deadline-aware shedding, step one: a request that arrives already dead
	// is dropped before it queues — let alone runs.
	if err := ctx.Err(); err != nil {
		l.countExpired()
		return fmt.Errorf("overload: request expired before admission: %w", err)
	}
	l.mu.Lock()
	if l.inflight < l.cfg.Limit && l.queued == 0 {
		l.inflight++
		l.admitted++
		l.gaugesLocked()
		l.mu.Unlock()
		l.m.admits.Inc()
		return nil
	}
	if len(l.queues[class]) >= l.cfg.QueueDepth {
		l.sheds[class]++
		l.mu.Unlock()
		l.m.sheds[class].Inc()
		return transport.Overloaded(l.cfg.RetryAfter)
	}
	w := &waiter{class: class, ready: make(chan struct{})}
	l.queues[class] = append(l.queues[class], w)
	l.queued++
	l.gaugesLocked()
	l.mu.Unlock()

	select {
	case <-w.ready:
		// A slot was transferred to us. Deadline-aware shedding, step two: if
		// our caller gave up while we queued, hand the slot straight on and
		// drop without invoking the handler.
		if err := ctx.Err(); err != nil {
			l.Release()
			l.countExpired()
			return fmt.Errorf("overload: deadline expired in queue: %w", err)
		}
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		if w.granted {
			// The grant raced our cancellation and won: we own a slot after
			// all. Pass it on rather than run for a dead caller.
			l.mu.Unlock()
			l.Release()
		} else {
			l.removeLocked(w)
			l.gaugesLocked()
			l.mu.Unlock()
		}
		l.countExpired()
		return fmt.Errorf("overload: deadline expired in queue: %w", ctx.Err())
	}
}

// countExpired records one deadline drop.
func (l *Limiter) countExpired() {
	l.mu.Lock()
	l.expired++
	l.mu.Unlock()
	l.m.expired.Inc()
}

// shed records a shed that happened outside the limiter's own queues (the
// per-peer token buckets) so the per-class shed counters stay the one place
// that answers "what is being dropped". Nil-safe.
func (l *Limiter) shed(class Class) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.sheds[class]++
	l.mu.Unlock()
	l.m.sheds[class].Inc()
}

// Release returns one inflight slot, handing it to the highest-priority
// queued waiter.
func (l *Limiter) Release() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.inflight--
	l.pumpLocked()
	l.gaugesLocked()
	l.mu.Unlock()
}

// pumpLocked grants freed capacity to queued waiters, highest class first,
// FIFO within a class.
func (l *Limiter) pumpLocked() {
	for l.inflight < l.cfg.Limit && l.queued > 0 {
		var w *waiter
		for c := 0; c < numClasses; c++ {
			if q := l.queues[c]; len(q) > 0 {
				w = q[0]
				l.queues[c] = q[1:]
				break
			}
		}
		if w == nil {
			return
		}
		l.queued--
		l.inflight++
		l.admitted++
		w.granted = true
		close(w.ready)
		l.m.admits.Inc()
	}
}

// removeLocked unlinks a cancelled waiter from its class queue.
func (l *Limiter) removeLocked(w *waiter) {
	q := l.queues[w.class]
	for i, cand := range q {
		if cand == w {
			l.queues[w.class] = append(q[:i], q[i+1:]...)
			l.queued--
			return
		}
	}
}

// gaugesLocked refreshes the instantaneous instruments.
func (l *Limiter) gaugesLocked() {
	l.m.inflight.Set(int64(l.inflight))
	l.m.queued.Set(int64(l.queued))
}

// Snapshot is the control plane's status surface: rendered by midasctl top
// (via the /fleet document), exposed as /healthz values, and compared bit for
// bit by the seeded herd scenario's replay.
type Snapshot struct {
	Limit         int
	Inflight      int
	Queued        int
	Admitted      uint64
	ShedKeepalive uint64
	ShedMutation  uint64
	ShedRead      uint64
	ExpiredDrops  uint64
	// PeerSheds is the subset of the class counters above attributable to
	// the per-peer token buckets rather than queue overflow.
	PeerSheds uint64
	Peers     int
}

// Sheds returns the total requests shed across all classes (queue overflows
// and per-peer bucket denials; the latter are also broken out in PeerSheds).
func (s Snapshot) Sheds() uint64 {
	return s.ShedKeepalive + s.ShedMutation + s.ShedRead
}

// Snapshot returns the limiter's cap, current state and cumulative counters.
// Nil-safe.
func (l *Limiter) Snapshot() Snapshot {
	if l == nil {
		return Snapshot{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return Snapshot{
		Limit:         l.cfg.Limit,
		Inflight:      l.inflight,
		Queued:        l.queued,
		Admitted:      l.admitted,
		ShedKeepalive: l.sheds[ClassKeepalive],
		ShedMutation:  l.sheds[ClassMutation],
		ShedRead:      l.sheds[ClassRead],
		ExpiredDrops:  l.expired,
	}
}
