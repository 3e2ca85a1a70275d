// Package overload is the server-side overload control plane: an adaptive
// concurrency limiter with bounded per-priority queues, deadline-aware
// shedding, and per-peer token buckets, fronting the Handler side of every
// RPC fabric (in-proc, simnet, TCP — they all deliver through
// transport.Handler.Handle, so one wrapper covers all three).
//
// The concurrency limit adapts by AIMD on observed queue delay with a
// CoDel-style target: each control interval, the limiter looks at the *best*
// queue delay any admission saw — if even the best-treated request waited
// past the target, the server is genuinely saturated (not just bursty) and
// the limit halves; otherwise it creeps up by one. Requests beyond the limit
// wait in one bounded FIFO per priority class, granted strictly
// keepalive > mutation > read, so a renewal storm cuts the line past a
// dashboard's reads. Requests that overflow their class queue are shed
// immediately with transport.ErrOverloaded carrying a retry-after hint, and
// requests whose deadline lapses before a slot frees are dropped without
// invoking the handler — work for a caller that already gave up is the purest
// waste an overloaded server can cut.
package overload

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// Config tunes a Limiter. The zero value gets serviceable defaults.
type Config struct {
	// InitialLimit is the starting concurrency limit (default 16, clamped
	// into [MinLimit, MaxLimit]).
	InitialLimit int
	// MinLimit is the AIMD floor — the limit a saturated server decays to
	// (default 4).
	MinLimit int
	// MaxLimit is the AIMD ceiling (default 256).
	MaxLimit int
	// QueueDepth bounds each priority class's wait queue; an arrival past it
	// is shed (default 128).
	QueueDepth int
	// Target is the CoDel-style queue-delay target: when an interval's
	// minimum observed queue delay exceeds it, the limit halves (default 5ms).
	Target time.Duration
	// Interval is the AIMD control interval (default 100ms).
	Interval time.Duration
	// RetryAfter is the hint attached to queue-overflow sheds (default 250ms).
	RetryAfter time.Duration
	// Clock times queue delays and control intervals (default the real
	// clock). Point it at a manual clock to drive the limiter
	// deterministically in simulation.
	Clock clock.Clock
}

// waiter is one queued request. ready is closed by the granter after it has
// transferred an inflight slot to the waiter; granted disambiguates the race
// between a grant and the waiter's own cancellation.
type waiter struct {
	class   Class
	ready   chan struct{}
	enq     time.Time
	granted bool
}

// limiterMetrics mirrors the limiter's internal counters into a registry;
// nil-safe no-ops until Instrument.
type limiterMetrics struct {
	sheds    [numClasses]*metrics.Counter
	expired  *metrics.Counter
	admits   *metrics.Counter
	limit    *metrics.Gauge
	inflight *metrics.Gauge
	queued   *metrics.Gauge
}

// Limiter is the adaptive concurrency limiter. Acquire blocks until the
// request is admitted, sheds it, or its context dies; every successful
// Acquire must be paired with exactly one Release.
type Limiter struct {
	cfg Config
	clk clock.Clock

	mu            sync.Mutex
	limit         int
	inflight      int
	queues        [numClasses][]*waiter
	queued        int
	intervalStart time.Time
	minDelay      time.Duration
	haveSample    bool

	sheds    [numClasses]uint64
	expired  uint64
	admitted uint64

	m limiterMetrics
}

// NewLimiter returns a Limiter with cfg's gaps filled by defaults.
func NewLimiter(cfg Config) *Limiter {
	if cfg.MinLimit <= 0 {
		cfg.MinLimit = 4
	}
	if cfg.MaxLimit < cfg.MinLimit {
		cfg.MaxLimit = 256
		if cfg.MaxLimit < cfg.MinLimit {
			cfg.MaxLimit = cfg.MinLimit
		}
	}
	if cfg.InitialLimit <= 0 {
		cfg.InitialLimit = 16
	}
	if cfg.InitialLimit < cfg.MinLimit {
		cfg.InitialLimit = cfg.MinLimit
	}
	if cfg.InitialLimit > cfg.MaxLimit {
		cfg.InitialLimit = cfg.MaxLimit
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	if cfg.Target <= 0 {
		cfg.Target = 5 * time.Millisecond
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 250 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	return &Limiter{cfg: cfg, clk: cfg.Clock, limit: cfg.InitialLimit}
}

// Instrument mirrors shed/drop counters and the limit/inflight/queue gauges
// into reg. A nil limiter or nil reg is a no-op.
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
	l.m.limit = reg.Gauge("overload.limit")
	l.m.inflight = reg.Gauge("overload.inflight")
	l.m.queued = reg.Gauge("overload.queued")
	l.m.limit.Set(int64(l.limit))
}

// Acquire admits one request of the given class, blocking in the class's
// bounded queue while the server is at its limit. It returns nil when the
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
		l.mu.Lock()
		l.expired++
		l.mu.Unlock()
		l.m.expired.Inc()
		return fmt.Errorf("overload: request expired before admission: %w", err)
	}
	now := l.clk.Now()
	l.mu.Lock()
	l.tickLocked(now)
	if l.inflight < l.limit && l.queued == 0 {
		l.inflight++
		l.admitted++
		l.observeLocked(now, 0)
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
	w := &waiter{class: class, ready: make(chan struct{}), enq: now}
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
			l.mu.Lock()
			l.expired++
			l.mu.Unlock()
			l.m.expired.Inc()
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
		l.mu.Lock()
		l.expired++
		l.mu.Unlock()
		l.m.expired.Inc()
		return fmt.Errorf("overload: deadline expired in queue: %w", ctx.Err())
	}
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
// queued waiter if the limit allows.
func (l *Limiter) Release() {
	if l == nil {
		return
	}
	now := l.clk.Now()
	l.mu.Lock()
	l.inflight--
	l.tickLocked(now)
	l.pumpLocked(now)
	l.gaugesLocked()
	l.mu.Unlock()
}

// pumpLocked grants freed or newly raised capacity to queued waiters,
// highest class first, FIFO within a class.
func (l *Limiter) pumpLocked(now time.Time) {
	for l.inflight < l.limit && l.queued > 0 {
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
		l.observeLocked(now, now.Sub(w.enq))
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

// observeLocked feeds one admission's queue delay into the controller. CoDel
// tracks the interval *minimum*: a high minimum means every request waited —
// standing saturation — while a high p99 alone is just a burst.
func (l *Limiter) observeLocked(now time.Time, delay time.Duration) {
	if !l.haveSample || delay < l.minDelay {
		l.minDelay = delay
		l.haveSample = true
	}
	l.tickLocked(now)
}

// tickLocked closes out an elapsed control interval: multiplicative decrease
// when even the best-treated admission waited past Target, additive increase
// otherwise. Intervals with no admissions adjust nothing.
func (l *Limiter) tickLocked(now time.Time) {
	if l.intervalStart.IsZero() {
		l.intervalStart = now
		return
	}
	if now.Sub(l.intervalStart) < l.cfg.Interval {
		return
	}
	// Close the interval before acting on it: pumpLocked re-enters here via
	// observeLocked, and a stale intervalStart would double-adjust.
	sampled, minDelay := l.haveSample, l.minDelay
	l.intervalStart = now
	l.haveSample = false
	if !sampled {
		return
	}
	if minDelay > l.cfg.Target {
		l.limit /= 2
		if l.limit < l.cfg.MinLimit {
			l.limit = l.cfg.MinLimit
		}
	} else if l.limit < l.cfg.MaxLimit {
		l.limit++
		l.pumpLocked(now)
	}
	l.m.limit.Set(int64(l.limit))
}

// gaugesLocked refreshes the instantaneous instruments.
func (l *Limiter) gaugesLocked() {
	l.m.limit.Set(int64(l.limit))
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

// Snapshot returns the limiter's current state and cumulative counters.
// Nil-safe.
func (l *Limiter) Snapshot() Snapshot {
	if l == nil {
		return Snapshot{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return Snapshot{
		Limit:         l.limit,
		Inflight:      l.inflight,
		Queued:        l.queued,
		Admitted:      l.admitted,
		ShedKeepalive: l.sheds[ClassKeepalive],
		ShedMutation:  l.sheds[ClassMutation],
		ShedRead:      l.sheds[ClassRead],
		ExpiredDrops:  l.expired,
	}
}
