// Package weave is the run-time weaver at the heart of the PROSE layer. It
// keeps the registry of join-point sites planted by the JIT (or by explicit
// hooks in native Go services), and maps dynamically inserted/withdrawn
// aspects onto per-site advice chains.
//
// The performance-critical property reproduced from the paper is the
// "minimal hook" design: every potential join point carries a stub whose
// inactive cost is a single atomic pointer load, so that methods not affected
// by interceptions are not slowed down.
package weave

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aop"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Site is one static join point in a woven application. The JIT plants a
// stub referencing the Site; Dispatch is the stub's slow path.
type Site struct {
	Kind  aop.Kind
	Sig   aop.Signature
	Field string

	chain atomic.Pointer[chain]

	// metrics is consulted only on the dispatch slow path (chain != nil);
	// the inactive fast path — Active(), one atomic load — never touches it.
	metrics atomic.Pointer[siteMetrics]
}

// siteMetrics is the per-weaver dispatch accounting shared by all sites.
type siteMetrics struct {
	dispatches *metrics.Counter
	errors     *metrics.Counter
}

type chain struct {
	entries []chainEntry
}

type chainEntry struct {
	aspect *aop.Aspect
	advice *aop.Advice
	order  [3]int // priority, insertion sequence, advice index
}

// Active reports whether any advice is currently woven at this site. This is
// the minimal-hook fast path: callers should skip building a Context when it
// returns false.
func (s *Site) Active() bool { return s.chain.Load() != nil }

// Dispatch runs the woven advice chain with ctx. The first advice error (or
// veto via ctx.Abort) stops the chain and is returned.
func (s *Site) Dispatch(ctx *aop.Context) error {
	c := s.chain.Load()
	if c == nil {
		return nil
	}
	sm := s.metrics.Load()
	if sm != nil {
		sm.dispatches.Inc()
	}
	for i := range c.entries {
		if err := c.entries[i].advice.Body.Exec(ctx); err != nil {
			if sm != nil {
				sm.errors.Inc()
			}
			return err
		}
		if err := ctx.Aborted(); err != nil {
			if sm != nil {
				sm.errors.Inc()
			}
			return err
		}
	}
	return nil
}

// Weaver owns the sites of one node and the set of active aspects.
type Weaver struct {
	mu      sync.Mutex
	sites   []*Site
	aspects map[string]*insertedAspect
	seq     int

	m *weaverMetrics // nil until Instrument

	// tracer records weave/unweave control-plane spans. It is never consulted
	// on the dispatch path, so tracing adds zero cost to interceptions.
	tracer *trace.Tracer
}

// weaverMetrics holds the weaver's own instruments plus the shared dispatch
// accounting handed to every site.
type weaverMetrics struct {
	site        *siteMetrics
	inserts     *metrics.Counter
	withdraws   *metrics.Counter
	insertNs    *metrics.Histogram
	withdrawNs  *metrics.Histogram
	aspects     *metrics.Gauge
	sites       *metrics.Gauge
	activeSites *metrics.Gauge
}

// Instrument wires the weaver (and every current and future site) into reg:
// interception dispatches and advice errors, weave/withdraw latencies, and
// gauges for registered sites, active sites and active aspects. A nil reg is
// a no-op. Site dispatch accounting lives strictly on the dispatch slow path;
// the inactive join-point fast path stays a single atomic pointer load.
func (w *Weaver) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	wm := &weaverMetrics{
		site: &siteMetrics{
			dispatches: reg.Counter("weave.dispatches"),
			errors:     reg.Counter("weave.dispatch_errors"),
		},
		inserts:     reg.Counter("weave.inserts"),
		withdraws:   reg.Counter("weave.withdraws"),
		insertNs:    reg.Histogram("weave.insert_ns", nil),
		withdrawNs:  reg.Histogram("weave.withdraw_ns", nil),
		aspects:     reg.Gauge("weave.aspects"),
		sites:       reg.Gauge("weave.sites"),
		activeSites: reg.Gauge("weave.active_sites"),
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.m = wm
	for _, s := range w.sites {
		s.metrics.Store(wm.site)
	}
	w.refreshGaugesLocked()
}

// refreshGaugesLocked republishes the structural gauges after a change.
func (w *Weaver) refreshGaugesLocked() {
	if w.m == nil {
		return
	}
	w.m.aspects.Set(int64(len(w.aspects)))
	w.m.sites.Set(int64(len(w.sites)))
	active := 0
	for _, s := range w.sites {
		if s.Active() {
			active++
		}
	}
	w.m.activeSites.Set(int64(active))
}

type insertedAspect struct {
	aspect *aop.Aspect
	seq    int
}

// New returns an empty weaver.
func New() *Weaver {
	return &Weaver{aspects: make(map[string]*insertedAspect)}
}

// RegisterMethodSite creates (and wires) the join-point site for a method
// boundary. kind must be MethodEntry, MethodExit, ExceptionThrow or
// ExceptionHandler.
func (w *Weaver) RegisterMethodSite(kind aop.Kind, sig aop.Signature) *Site {
	s := &Site{Kind: kind, Sig: sig}
	w.addSite(s)
	return s
}

// RegisterFieldSite creates the join-point site for a field access. kind must
// be FieldGet or FieldSet.
func (w *Weaver) RegisterFieldSite(kind aop.Kind, class, field string) *Site {
	s := &Site{Kind: kind, Sig: aop.Signature{Class: class}, Field: field}
	w.addSite(s)
	return s
}

func (w *Weaver) addSite(s *Site) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.m != nil {
		s.metrics.Store(w.m.site)
	}
	w.sites = append(w.sites, s)
	w.recomputeLocked(s)
	w.refreshGaugesLocked()
}

// Insert activates an aspect: its advice is woven into every currently
// registered matching site, and will be woven into sites registered later.
// Aspect names must be unique; inserting a second aspect with the same name
// fails (use Replace for policy evolution).
func (w *Weaver) Insert(a *aop.Aspect) error {
	if err := a.Validate(); err != nil {
		return err
	}
	w.mu.Lock()
	if _, dup := w.aspects[a.Name]; dup {
		w.mu.Unlock()
		return fmt.Errorf("weave: aspect %q already inserted", a.Name)
	}
	w.mu.Unlock()

	if a.OnActivate != nil {
		if err := a.OnActivate(); err != nil {
			return fmt.Errorf("weave: activate %q: %w", a.Name, err)
		}
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.aspects[a.Name]; dup {
		return fmt.Errorf("weave: aspect %q already inserted", a.Name)
	}
	start := time.Time{}
	if w.m != nil {
		start = time.Now() //lint:allow clockcheck (real weave latency metric)
	}
	w.seq++
	w.aspects[a.Name] = &insertedAspect{aspect: a, seq: w.seq}
	w.recomputeAllLocked()
	if w.m != nil {
		w.m.inserts.Inc()
		w.m.insertNs.Since(start)
		w.refreshGaugesLocked()
	}
	return nil
}

// Withdraw removes the named aspect, running its shutdown procedure first so
// it can reach a consistent state (per §3.2). It records a "weave.withdraw"
// span in the trace carried by ctx.
func (w *Weaver) Withdraw(ctx context.Context, name string) error {
	_, sp := w.traceRef().StartSpan(ctx, "weave.withdraw")
	sp.Tag("aspect", name)
	err := w.withdraw(name)
	sp.End(err)
	return err
}

func (w *Weaver) withdraw(name string) error {
	w.mu.Lock()
	ins, ok := w.aspects[name]
	if !ok {
		w.mu.Unlock()
		return fmt.Errorf("weave: aspect %q not inserted", name)
	}
	start := time.Time{}
	if w.m != nil {
		start = time.Now() //lint:allow clockcheck (real weave latency metric)
	}
	delete(w.aspects, name)
	w.recomputeAllLocked()
	if w.m != nil {
		w.m.withdraws.Inc()
		w.m.withdrawNs.Since(start)
		w.refreshGaugesLocked()
	}
	w.mu.Unlock()

	if ins.aspect.OnShutdown != nil {
		ins.aspect.OnShutdown()
	}
	return nil
}

// Replace atomically swaps an old aspect for a new one, supporting the
// paper's "allow the replacement of obsolete extensions with new ones in case
// the local policy evolves". The old aspect's shutdown runs after the swap.
// It records a "weave.replace" span in the trace carried by ctx.
func (w *Weaver) Replace(ctx context.Context, oldName string, a *aop.Aspect) error {
	_, sp := w.traceRef().StartSpan(ctx, "weave.replace")
	sp.Tag("aspect", a.Name)
	if oldName != a.Name {
		sp.Tag("replaces", oldName)
	}
	err := w.replace(oldName, a)
	sp.End(err)
	return err
}

func (w *Weaver) replace(oldName string, a *aop.Aspect) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if a.OnActivate != nil {
		if err := a.OnActivate(); err != nil {
			return fmt.Errorf("weave: activate %q: %w", a.Name, err)
		}
	}
	w.mu.Lock()
	old, ok := w.aspects[oldName]
	if !ok {
		w.mu.Unlock()
		return fmt.Errorf("weave: aspect %q not inserted", oldName)
	}
	if oldName != a.Name {
		if _, dup := w.aspects[a.Name]; dup {
			w.mu.Unlock()
			return fmt.Errorf("weave: aspect %q already inserted", a.Name)
		}
	}
	start := time.Time{}
	if w.m != nil {
		start = time.Now() //lint:allow clockcheck (real weave latency metric)
	}
	delete(w.aspects, oldName)
	w.seq++
	w.aspects[a.Name] = &insertedAspect{aspect: a, seq: w.seq}
	w.recomputeAllLocked()
	if w.m != nil {
		w.m.inserts.Inc()
		w.m.insertNs.Since(start)
		w.refreshGaugesLocked()
	}
	w.mu.Unlock()

	if old.aspect.OnShutdown != nil {
		old.aspect.OnShutdown()
	}
	return nil
}

// Trace records weave/unweave operations as spans in tr. Only the
// insert/withdraw/replace control plane is traced; the join-point fast path
// (Active, one atomic load) and Dispatch never touch the tracer. A nil tr is
// a no-op.
func (w *Weaver) Trace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tracer = tr
}

func (w *Weaver) traceRef() *trace.Tracer {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tracer
}

// InsertCtx is Insert recording a "weave.insert" span in the trace carried
// by ctx (typically the extension install that triggered the weave).
func (w *Weaver) InsertCtx(ctx context.Context, a *aop.Aspect) error {
	_, sp := w.traceRef().StartSpan(ctx, "weave.insert")
	sp.Tag("aspect", a.Name)
	err := w.Insert(a)
	sp.End(err)
	return err
}

// Has reports whether the named aspect is active.
//
//lint:allow shipped (test seam: tests check a withdrawn aspect left the weaver, not only the receiver's table)
func (w *Weaver) Has(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.aspects[name]
	return ok
}

// SiteCount returns the number of registered join-point sites.
func (w *Weaver) SiteCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sites)
}

// ActiveSiteCount returns the number of sites with at least one advice woven.
func (w *Weaver) ActiveSiteCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, s := range w.sites {
		if s.Active() {
			n++
		}
	}
	return n
}

// recomputeAllLocked rebuilds every site's chain; called on aspect changes.
func (w *Weaver) recomputeAllLocked() {
	for _, s := range w.sites {
		w.recomputeLocked(s)
	}
}

// recomputeLocked rebuilds one site's chain against the active aspect set.
func (w *Weaver) recomputeLocked(s *Site) {
	var entries []chainEntry
	for _, ins := range w.aspects {
		a := ins.aspect
		for i := range a.Advices {
			adv := &a.Advices[i]
			if adv.Cut.Kind != s.Kind {
				continue
			}
			if !matches(adv, s) {
				continue
			}
			entries = append(entries, chainEntry{
				aspect: a,
				advice: adv,
				order:  [3]int{a.Priority, ins.seq, i},
			})
		}
	}
	if len(entries) == 0 {
		s.chain.Store(nil)
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].order, entries[j].order
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	s.chain.Store(&chain{entries: entries})
}

func matches(adv *aop.Advice, s *Site) bool {
	switch s.Kind {
	case aop.FieldGet, aop.FieldSet:
		return adv.Cut.Pat.MatchField(s.Sig.Class, s.Field)
	default:
		return adv.Cut.Pat.MatchMethod(s.Sig)
	}
}
