package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ErrBreakerOpen is returned without touching the network when the circuit
// to a destination is open. It is deliberately not an ErrUnreachable (and not
// a net.Error), so it never counts as a transport failure itself: the whole
// point of the breaker is that a persistently unreachable node stops
// consuming calls.
var ErrBreakerOpen = errors.New("transport: circuit open")

// transient reports whether err is a transport-level failure: no route to
// the destination, a timed-out attempt, or a network timeout. Remote
// application errors are deterministic and do not count.
func transient(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	var ne net.Error
	return errors.Is(err, ErrUnreachable) ||
		errors.Is(err, context.DeadlineExceeded) ||
		(errors.As(err, &ne) && ne.Timeout())
}

// BreakerState is one destination's circuit state.
type BreakerState int

// Circuit states. Closed passes traffic; Open fast-fails everything until the
// cooldown elapses; HalfOpen lets exactly one probe through.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state for status surfaces.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes a BreakerSet.
type BreakerConfig struct {
	// Threshold is the number of consecutive counted failures that trips the
	// circuit (default 3).
	Threshold int
	// Cooldown is how long an open circuit fast-fails before admitting a
	// half-open probe (default 5s).
	Cooldown time.Duration
	// Jitter spreads each cooldown by ±Jitter fraction, drawn from the seeded
	// RNG so simulated runs replay identically (default 0.2; out-of-range
	// values reset to it). Zero disables jitter.
	Jitter float64
	// Clock times the cooldown (default the real clock). Point it at a manual
	// clock to drive the breaker deterministically in simulation.
	Clock clock.Clock
	// FailIf decides which errors count toward tripping (default: the
	// transport-level failures of transient, so deterministic remote
	// application errors never open a circuit).
	FailIf func(error) bool
}

// BreakerStatus is a snapshot of one destination's circuit.
type BreakerStatus struct {
	To           string
	State        string
	Failures     int    // consecutive counted failures
	LastError    string // most recent counted failure
	OpenedMillis int64  // when the circuit last opened (0 = never)
}

// breaker is one destination's state. All fields are guarded by the set's mu.
type breaker struct {
	state     BreakerState
	failures  int
	openUntil time.Time
	openedAt  time.Time
	probing   bool // a half-open probe is in flight
	lastErr   string
}

// breakerMetrics counts circuit activity; nil-safe until Instrument.
type breakerMetrics struct {
	opens     *metrics.Counter
	closes    *metrics.Counter
	fastFails *metrics.Counter
	probes    *metrics.Counter
}

// BreakerSet holds one circuit breaker per destination address and wraps a
// Caller with them. A persistently unreachable node's circuit opens after
// Threshold consecutive transport failures; while open every call to it
// fast-fails locally with ErrBreakerOpen, and after a jittered cooldown a
// single probe is admitted — success closes the circuit, failure re-opens it.
// A nil *BreakerSet is a no-op (Wrap returns the caller unchanged), so
// components can thread an optional breaker unconditionally.
type BreakerSet struct {
	cfg BreakerConfig

	mu     sync.Mutex
	rng    *rand.Rand
	nodes  map[string]*breaker
	m      breakerMetrics
	tracer *trace.Tracer
}

// NewBreakerSet returns a BreakerSet with cooldown jitter drawn from a RNG
// seeded with seed, so two simulated runs with the same seed open and probe
// identically.
func NewBreakerSet(seed int64, cfg BreakerConfig) *BreakerSet {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Jitter < 0 || cfg.Jitter > 1 {
		cfg.Jitter = 0.2
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.FailIf == nil {
		cfg.FailIf = transient
	}
	return &BreakerSet{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		nodes: make(map[string]*breaker),
	}
}

// Instrument records circuit opens, closes, fast-failed calls and half-open
// probes in reg. A nil set or nil reg is a no-op.
func (s *BreakerSet) Instrument(reg *metrics.Registry) {
	if s == nil || reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = breakerMetrics{
		opens:     reg.Counter("transport.breaker_opens"),
		closes:    reg.Counter("transport.breaker_closes"),
		fastFails: reg.Counter("transport.breaker_fastfails"),
		probes:    reg.Counter("transport.breaker_probes"),
	}
}

// Trace logs circuit transitions to tr's structured event ring under the
// "breaker" component. A nil set or nil tr is a no-op.
func (s *BreakerSet) Trace(tr *trace.Tracer) {
	if s == nil || tr == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = tr
}

// State returns the circuit state for destination to (BreakerClosed for a
// destination never called). Nil-safe.
func (s *BreakerSet) State(to string) BreakerState {
	if s == nil {
		return BreakerClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.nodes[to]
	if !ok {
		return BreakerClosed
	}
	return s.effectiveStateLocked(b)
}

// Snapshot returns the per-destination circuit status, sorted by address.
// Nil-safe.
func (s *BreakerSet) Snapshot() []BreakerStatus {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BreakerStatus, 0, len(s.nodes))
	for to, b := range s.nodes {
		st := BreakerStatus{
			To:        to,
			State:     s.effectiveStateLocked(b).String(),
			Failures:  b.failures,
			LastError: b.lastErr,
		}
		if !b.openedAt.IsZero() {
			st.OpenedMillis = b.openedAt.UnixMilli()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].To < out[j].To })
	return out
}

// effectiveStateLocked folds cooldown expiry into the stored state: an open
// circuit whose cooldown has elapsed reads as half-open (the next call is the
// probe).
func (s *BreakerSet) effectiveStateLocked(b *breaker) BreakerState {
	if b.state == BreakerOpen && !s.cfg.Clock.Now().Before(b.openUntil) {
		return BreakerHalfOpen
	}
	return b.state
}

// Wrap returns a Caller that routes every Call through the per-destination
// circuit. A nil set returns c unchanged.
func (s *BreakerSet) Wrap(c Caller) Caller {
	if s == nil {
		return c
	}
	return &breakerCaller{set: s, inner: c}
}

type breakerCaller struct {
	set   *BreakerSet
	inner Caller
}

// Call implements Caller.
func (bc *breakerCaller) Call(ctx context.Context, to, method string, req, resp any) error {
	s := bc.set
	probe, err := s.admit(to)
	if err != nil {
		return fmt.Errorf("%w: %s", err, to)
	}
	callErr := bc.inner.Call(ctx, to, method, req, resp)
	s.record(to, probe, callErr)
	return callErr
}

// admit decides whether a call to to may proceed. It returns probe=true when
// the call is the single half-open probe, or ErrBreakerOpen when the circuit
// fast-fails the call.
func (s *BreakerSet) admit(to string) (probe bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.nodes[to]
	if !ok {
		b = &breaker{}
		s.nodes[to] = b
	}
	switch s.effectiveStateLocked(b) {
	case BreakerClosed:
		return false, nil
	case BreakerHalfOpen:
		if b.probing {
			s.m.fastFails.Inc()
			return false, ErrBreakerOpen
		}
		b.state = BreakerHalfOpen
		b.probing = true
		s.m.probes.Inc()
		s.tracer.Eventf(nil, "breaker", "half-open probe to %s", to)
		return true, nil
	default: // open, cooling down
		s.m.fastFails.Inc()
		return false, ErrBreakerOpen
	}
}

// record feeds a call outcome back into the circuit. A load shed
// (ErrOverloaded) is never counted regardless of FailIf: the server answered,
// so the link is healthy, and parking an overloaded-but-working base as
// degraded would turn congestion into an outage.
func (s *BreakerSet) record(to string, probe bool, callErr error) {
	counted := callErr != nil && !errors.Is(callErr, ErrOverloaded) && s.cfg.FailIf(callErr)
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.nodes[to]
	if b == nil {
		return
	}
	if probe {
		b.probing = false
	}
	if !counted {
		if callErr == nil || probe {
			// Success (or a probe answered with a deterministic application
			// error: the node is reachable) closes the circuit and resets the
			// failure run.
			if b.state != BreakerClosed {
				s.m.closes.Inc()
				s.tracer.Eventf(nil, "breaker", "circuit to %s closed", to)
			}
			b.state = BreakerClosed
			b.failures = 0
			b.lastErr = ""
		}
		// A non-probe application error leaves the circuit as-is: the node
		// answered, so the link is fine and the failure run is not extended.
		return
	}
	b.failures++
	b.lastErr = callErr.Error()
	if probe || b.failures >= s.cfg.Threshold {
		s.openLocked(to, b)
	}
}

// openLocked trips (or re-arms) the circuit with a jittered cooldown.
func (s *BreakerSet) openLocked(to string, b *breaker) {
	now := s.cfg.Clock.Now()
	wasOpen := b.state == BreakerOpen || b.state == BreakerHalfOpen
	b.state = BreakerOpen
	b.openedAt = now
	b.openUntil = now.Add(s.jitteredCooldown())
	if !wasOpen {
		s.m.opens.Inc()
		s.tracer.Eventf(nil, "breaker", "circuit to %s opened after %d consecutive failures: %s", to, b.failures, b.lastErr)
	}
}

// jitteredCooldown spreads the cooldown by ±Jitter. The RNG is consumed even
// with zero jitter so the draw sequence — and with it a simulated run — stays
// reproducible regardless of tuning. Callers hold s.mu.
func (s *BreakerSet) jitteredCooldown() time.Duration {
	u := s.rng.Float64()
	d := s.cfg.Cooldown
	if s.cfg.Jitter <= 0 {
		return d
	}
	return time.Duration(float64(d) * (1 + s.cfg.Jitter*(2*u-1)))
}
