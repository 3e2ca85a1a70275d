// Package lease implements Jini-style leasing, the mechanism MIDAS uses to
// make adaptations local in time and space: every distributed extension is
// leased to its receiver, the extension base keeps the lease alive while the
// node is in its area, and when renewals stop (the node left, the base died)
// the holder autonomously expires the grant.
//
// A Grantor is the landlord side: it issues, renews and expires leases. A
// Scheduler is the holder side, and the only thing that keeps a lease
// alive: a base's extension leases, a node's lookup advertisement and a
// base's lookup watch all renew on one.
package lease

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/transport"
)

// ID identifies a lease at its grantor.
type ID string

// Lease is the granted view handed to the holder.
type Lease struct {
	ID       ID
	Expiry   time.Time
	Duration time.Duration
}

// Errors returned by the grantor.
var (
	ErrUnknownLease = errors.New("lease: unknown lease")
	ErrExpired      = errors.New("lease: lease expired")
)

func init() {
	// Lease errors cross the wire on renewals: let errors.Is recover them
	// from remote errors on every fabric.
	transport.RegisterRemoteSentinel(ErrUnknownLease, ErrExpired)
}

type grant struct {
	lease    Lease
	onExpire func(ID)
	onCancel func(ID)
}

// Grantor issues and tracks leases (the "landlord" role). Expiry is driven
// either by the background sweeper (Start/Stop) or by explicit ExpireNow
// calls under a manual clock.
type Grantor struct {
	clk clock.Clock

	mu     sync.Mutex
	grants map[ID]*grant
	m      grantorMetrics
	tracer *trace.Tracer

	stop chan struct{}
	done chan struct{}
}

// grantorMetrics aggregates lease lifecycle counters; all fields are nil-safe
// no-ops until Instrument.
type grantorMetrics struct {
	grants      *metrics.Counter
	renewals    *metrics.Counter
	renewErrors *metrics.Counter
	cancels     *metrics.Counter
	expiries    *metrics.Counter
	active      *metrics.Gauge
}

// Instrument records grants, renewals (and renewal errors), cancellations,
// expiries and the live-lease gauge in reg. Grantors sharing one registry
// aggregate into the same counters. A nil reg is a no-op.
func (g *Grantor) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.m = grantorMetrics{
		grants:      reg.Counter("lease.grants"),
		renewals:    reg.Counter("lease.renewals"),
		renewErrors: reg.Counter("lease.renew_errors"),
		cancels:     reg.Counter("lease.cancels"),
		expiries:    reg.Counter("lease.expiries"),
		active:      reg.Gauge("lease.active"),
	}
	g.m.active.Set(int64(len(g.grants)))
}

// NewGrantor returns a Grantor on the given clock.
func NewGrantor(clk clock.Clock) *Grantor {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Grantor{clk: clk, grants: make(map[ID]*grant)}
}

// Trace logs grant/renew/cancel/expiry facts to tr's structured event ring
// under the "lease" component. A nil tr is a no-op.
func (g *Grantor) Trace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tracer = tr
}

// Grant issues a lease for d. onExpire (may be nil) runs when the lease
// lapses without renewal; it does not run on Cancel. The grant event is
// stamped with the trace carried by ctx (normally the install that holds the
// lease).
func (g *Grantor) Grant(ctx context.Context, d time.Duration, onExpire func(ID)) Lease {
	id := ID(randomID())
	l := Lease{ID: id, Expiry: g.clk.Now().Add(d), Duration: d}
	g.mu.Lock()
	g.grants[id] = &grant{lease: l, onExpire: onExpire}
	g.m.grants.Inc()
	g.m.active.Set(int64(len(g.grants)))
	g.tracer.Eventf(ctx, "lease", "grant %s for %s", id, d)
	g.mu.Unlock()
	return l
}

// Restore re-registers a grant recovered from a durable journal under its
// original ID and absolute expiry instant. Unlike Grant, no fresh window is
// opened: a lease whose deadline already passed during the crash is restored
// expired and fires onExpire on the next sweep, so replay after a long
// outage converges exactly like an uninterrupted run would have. d records
// the originally granted duration (what renewals extend by).
func (g *Grantor) Restore(id ID, expiry time.Time, d time.Duration, onExpire func(ID)) Lease {
	l := Lease{ID: id, Expiry: expiry, Duration: d}
	g.mu.Lock()
	g.grants[id] = &grant{lease: l, onExpire: onExpire}
	g.m.grants.Inc()
	g.m.active.Set(int64(len(g.grants)))
	g.tracer.Eventf(nil, "lease", "restore %s (expiry %s)", id, expiry.Format(time.RFC3339))
	g.mu.Unlock()
	return l
}

// Deadline returns the absolute expiry instant of a tracked lease.
func (g *Grantor) Deadline(id ID) (time.Time, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	gr, ok := g.grants[id]
	if !ok {
		return time.Time{}, false
	}
	return gr.lease.Expiry, true
}

// Renew extends the lease by d from now, stamping the renewal event with the
// trace carried by ctx (normally the remote renewal RPC, which joins the
// install's trace).
func (g *Grantor) Renew(ctx context.Context, id ID, d time.Duration) (Lease, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	gr, ok := g.grants[id]
	if !ok {
		g.m.renewErrors.Inc()
		g.tracer.Eventf(ctx, "lease", "renew %s refused: unknown lease", id)
		return Lease{}, ErrUnknownLease
	}
	now := g.clk.Now()
	if gr.lease.Expiry.Before(now) {
		g.m.renewErrors.Inc()
		g.tracer.Eventf(ctx, "lease", "renew %s refused: already expired", id)
		return Lease{}, ErrExpired
	}
	gr.lease.Expiry = now.Add(d)
	gr.lease.Duration = d
	g.m.renewals.Inc()
	g.tracer.Eventf(ctx, "lease", "renew %s for %s", id, d)
	return gr.lease, nil
}

// Cancel revokes the lease without running its expiry callback.
func (g *Grantor) Cancel(id ID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.grants[id]; !ok {
		return ErrUnknownLease
	}
	delete(g.grants, id)
	g.m.cancels.Inc()
	g.m.active.Set(int64(len(g.grants)))
	g.tracer.Eventf(nil, "lease", "cancel %s", id)
	return nil
}

// Active reports whether the lease exists and has not expired.
//
//lint:allow shipped (test seam: lease tests check a grant is live or gone)
func (g *Grantor) Active(id ID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	gr, ok := g.grants[id]
	return ok && !gr.lease.Expiry.Before(g.clk.Now())
}

// Len returns the number of tracked (possibly expired, not yet swept) leases.
//
//lint:allow shipped (test seam: lease and tuple-space tests count tracked leases)
func (g *Grantor) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.grants)
}

// ExpireNow sweeps lapsed leases, firing their expiry callbacks, and returns
// how many expired.
func (g *Grantor) ExpireNow() int {
	now := g.clk.Now()
	var fired []*grant
	g.mu.Lock()
	for id, gr := range g.grants {
		if gr.lease.Expiry.Before(now) {
			delete(g.grants, id)
			fired = append(fired, gr)
		}
	}
	g.m.expiries.Add(uint64(len(fired)))
	g.m.active.Set(int64(len(g.grants)))
	for _, gr := range fired {
		g.tracer.Eventf(nil, "lease", "expire %s (no renewal)", gr.lease.ID)
	}
	g.mu.Unlock()
	for _, gr := range fired {
		if gr.onExpire != nil {
			gr.onExpire(gr.lease.ID)
		}
	}
	return len(fired)
}

// Start launches a background sweeper with the given period. It must be
// paired with Stop.
func (g *Grantor) Start(period time.Duration) {
	g.mu.Lock()
	if g.stop != nil {
		g.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	g.stop, g.done = stop, done
	g.mu.Unlock()

	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-g.clk.After(period):
				g.ExpireNow()
			}
		}
	}()
}

// Stop terminates the background sweeper and waits for it to exit.
func (g *Grantor) Stop() {
	g.mu.Lock()
	stop, done := g.stop, g.done
	g.stop, g.done = nil, nil
	g.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func randomID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// counter-free constant would break uniqueness, so panic loudly.
		panic(fmt.Sprintf("lease: rand: %v", err))
	}
	return hex.EncodeToString(b[:])
}
