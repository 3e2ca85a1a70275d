package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"

	"repro/internal/event"
)

// RPC method names served by a base.
const (
	MethodBasePost      = "base.post"      // monitoring extensions post records here
	MethodBaseOnService = "base.onservice" // lookup watcher callback
	MethodBaseRoam      = "base.roam"      // roaming hint from a neighbour base
)

// Wire types for the base RPC surface.
type (
	// PostReq delivers one monitoring record.
	PostReq struct {
		Record store.Record
	}
	// RoamReq hints that a node departed a neighbour's area.
	RoamReq struct {
		NodeID   string
		NodeAddr string
	}
)

// BaseConfig assembles an extension base.
type BaseConfig struct {
	Name   string
	Addr   string // transport address the base serves on
	Caller transport.Caller
	Signer *sign.Signer
	Clock  clock.Clock
	Store  *store.Store // optional sink for monitoring records

	// LeaseDur is the lease granted per pushed extension (default 10s);
	// RenewFraction controls when renewals fire (default 0.5); RenewRetries
	// retries failed renewals within the lease before declaring the node
	// departed (for lossy wireless links; default 0).
	LeaseDur      time.Duration
	RenewFraction float64
	RenewRetries  int
	// CallTimeout bounds each RPC (default 2s). With a Policy set it bounds
	// the whole retried call, so it should cover the policy's backoff budget.
	CallTimeout time.Duration
	// Policy, when set, routes every outgoing RPC (pushes, renewals, revokes,
	// roaming hints) through retry-with-backoff. Retried installs/revokes are
	// safe: the receiver wire surface is idempotent.
	Policy *transport.Policy
	// Breaker, when set, wraps the outgoing caller (outside Policy, so an open
	// circuit fast-fails before any retry budget is spent) with per-node
	// circuit breaking. A node whose circuit is open when its renewals fail is
	// marked degraded and reconciled — not blindly re-pushed — when it
	// returns.
	Breaker *transport.BreakerSet
	// Journal, when set, checkpoints the base's distribution state (adapted
	// nodes, pushed extensions, lease deadlines) so Recover can resume
	// renewals after a crash.
	Journal *BaseJournal
	// ReconcileEvery, when > 0, runs the anti-entropy reconciler periodically:
	// every adapted or degraded node's inventory is diffed against the policy
	// set, missing extensions re-pushed, orphans revoked and receiver lease
	// deadlines adopted.
	ReconcileEvery time.Duration
	// Admission, when set, is the capability policy extensions must satisfy
	// at admission time: static analysis infers the exact capability set each
	// extension's advice can exercise, and an extension whose inferred demand
	// the policy refuses is rejected by AddExtension/ReplaceExtension — before
	// it is ever signed, pushed or woven anywhere. Nil skips the policy check
	// but still rejects extensions using capabilities they do not declare.
	Admission sandbox.Policy
	// AdmissionFlows, when non-nil, is the allowlist of information-flow
	// rules ("source->sink") the base operator permits: an extension whose
	// bytecode exercises a flow outside the list is rejected at admission,
	// counted by base.admission_flow_rejected. Nil allows any flow the
	// extension declares; flows the bytecode exercises but the descriptor
	// does not declare are always rejected, allowlist or not.
	AdmissionFlows []string
	// Shards splits the base's node table by consistent hash so adapt,
	// renewal and reconcile traffic for different nodes proceeds under
	// different locks, and reconcile rounds run one goroutine per shard
	// (default 8).
	Shards int
	// RenewTick is the renewal timer wheel's granularity (default
	// LeaseDur*RenewFraction/4, so a fresh lease's first renewal lands on its
	// familiar window*fraction instant). One wheel goroutine plus RenewWorkers
	// workers keep every extension lease alive, not one goroutine per lease.
	RenewTick time.Duration
	// RenewBatch caps how many of a node's due leases coalesce into one
	// batched midas.renewBatch RPC (default 64). RenewWorkers bounds
	// concurrent renew RPCs (default 1, which keeps traced scenarios
	// deterministic; fleet-scale deployments raise it).
	RenewBatch   int
	RenewWorkers int
}

// BaseActivity is one entry of the base's distribution log (§3.2: each base
// keeps track of what nodes were adapted, at what point in time).
type BaseActivity struct {
	AtMillis int64
	Event    string // "adapt", "push", "depart", "revoke", "roam-hint", "roam-adopt", "degrade", "recover", "reconcile"
	Node     string
	Ext      string
	Detail   string
}

type adaptedNode struct {
	id   string
	addr string
	// spanCtxs remembers, per extension, the span under which the push
	// succeeded, so later renewals and revokes join the install's trace.
	spanCtxs map[string]trace.SpanContext
	// grants mirrors the lease state per pushed extension; it is what the
	// journal checkpoints, so deadlines are absolute. An extension present
	// here is being kept alive by the base's renewal scheduler.
	grants map[string]grantInfo
}

// grantInfo is the base's view of one pushed extension's lease.
type grantInfo struct {
	version  int
	leaseID  lease.ID
	dur      time.Duration
	deadline time.Time
}

func newAdaptedNode(id, addr string) *adaptedNode {
	return &adaptedNode{
		id:       id,
		addr:     addr,
		spanCtxs: make(map[string]trace.SpanContext),
		grants:   make(map[string]grantInfo),
	}
}

// Base is a MIDAS extension base: it holds the extension set of one
// environment, adapts arriving nodes, keeps the distributed extensions alive
// and notices departures through failing renewals.
type Base struct {
	cfg    BaseConfig
	caller transport.Caller // cfg.Caller, wrapped by cfg.Policy when set

	// nodes shards the adapted/degraded node state; sched keeps every pushed
	// extension's lease alive on one timer wheel. closed is atomic so shard
	// paths check it without the config lock. Lock order: a shard's mu may be
	// held while taking b.mu or a scheduler lock, never the reverse.
	nodes  *nodeTable
	sched  *lease.Scheduler
	closed atomic.Bool
	// watch keeps the lookup watch (WatchLookup) alive; Close stops it.
	watch atomic.Pointer[lease.Scheduler]

	mu         sync.Mutex
	extensions []Extension
	// reports holds the admission analysis of every accepted extension, by
	// name; served at /analyze and read by midasctl analyze.
	reports       map[string]AnalysisReport
	signed        map[string]SignedExtension // push signature cache, name@version
	lastReconcile map[string]ReconcileResult
	stats         DriftCounters
	neighbors     []string
	activity      []BaseActivity
	reg           *metrics.Registry
	m             baseMetrics
	tracer        *trace.Tracer

	reconcileStop chan struct{}
	reconcileDone chan struct{}

	departures chan string
	onDepart   func(nodeAddr string)

	// fleet merges the observability deltas nodes piggyback on renewBatch
	// responses (see fleet.go). Zero value ready; own lock, no ordering ties.
	fleet fleetView

	// overload, when set, supplies the overload-control status rendered in
	// FleetStatus. Atomic pointer so SetOverload needs no lock-order slot.
	overload atomic.Pointer[func() overload.Snapshot]
}

// baseMetrics counts the distribution side of adaptation, mirroring the
// distribution log; all fields are nil-safe no-ops until Instrument.
type baseMetrics struct {
	adapts          *metrics.Counter
	pushes          *metrics.Counter
	pushErrors      *metrics.Counter
	admRejected     *metrics.Counter
	admFlowRejected *metrics.Counter
	departures      *metrics.Counter
	revokes         *metrics.Counter
	roamHints       *metrics.Counter
	degrades        *metrics.Counter
	recovers        *metrics.Counter
	journalErrs     *metrics.Counter
	// Reconciliation drift counters: how much anti-entropy work each round
	// found (re-pushed missing extensions, revoked orphans, adopted leases).
	reconRounds   *metrics.Counter
	reconRepushes *metrics.Counter
	reconOrphans  *metrics.Counter
	reconAdopts   *metrics.Counter
	reconErrors   *metrics.Counter
	// Batch-surface counters: batched renew RPCs (and the leases they
	// carried) and batched apply RPCs.
	renewBatches     *metrics.Counter
	renewBatchLeases *metrics.Counter
	pushBatches      *metrics.Counter
	adapted          *metrics.Gauge
	degraded         *metrics.Gauge
}

// Instrument records node adaptations, extension pushes (and push failures),
// departures, revocations and roaming hints in reg, plus the adapted-node
// gauge. The renewal scheduler that keeps pushed extensions alive joins the
// same registry.
// A nil reg is a no-op.
func (b *Base) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	b.sched.Instrument(reg)
	nAdapted, nDegraded := b.nodes.counts()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reg = reg
	b.m = baseMetrics{
		adapts:           reg.Counter("base.adapts"),
		pushes:           reg.Counter("base.pushes"),
		pushErrors:       reg.Counter("base.push_errors"),
		admRejected:      reg.Counter("base.admission_rejected"),
		admFlowRejected:  reg.Counter("base.admission_flow_rejected"),
		departures:       reg.Counter("base.departures"),
		revokes:          reg.Counter("base.revokes"),
		roamHints:        reg.Counter("base.roam_hints"),
		degrades:         reg.Counter("base.degrades"),
		recovers:         reg.Counter("base.recovers"),
		journalErrs:      reg.Counter("base.journal_errors"),
		reconRounds:      reg.Counter("base.reconcile_rounds"),
		reconRepushes:    reg.Counter("base.reconcile_repushes"),
		reconOrphans:     reg.Counter("base.reconcile_orphans"),
		reconAdopts:      reg.Counter("base.reconcile_adopts"),
		reconErrors:      reg.Counter("base.reconcile_errors"),
		renewBatches:     reg.Counter("base.renew_batch"),
		renewBatchLeases: reg.Counter("base.renew_batch_leases"),
		pushBatches:      reg.Counter("base.push_batch"),
		adapted:          reg.Gauge("base.adapted_nodes"),
		degraded:         reg.Gauge("base.degraded_nodes"),
	}
	b.m.adapted.Set(int64(nAdapted))
	b.m.degraded.Set(int64(nDegraded))
	b.cfg.Breaker.Instrument(reg)
	// Every outbound RPC gains per-method RED instruments (rpc.client.*), and
	// an instrumented base starts asking nodes for piggybacked fleet deltas.
	b.caller = transport.REDCalls(b.caller, reg)
}

// metricsRef snapshots the metric handles under the config lock; every field
// stays a nil-safe no-op until Instrument.
func (b *Base) metricsRef() baseMetrics {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m
}

// renewRefs snapshots everything the renewal path needs from the config lock
// in one acquisition — metric handles, tracer, and whether the base collects
// fleet observability (only an instrumented base asks nodes for piggybacked
// deltas, so un-instrumented deployments keep byte-identical renewal
// traffic). The renewal window takes this per due batch, so one lock
// round-trip instead of three is measurable at 100k nodes.
func (b *Base) renewRefs() (baseMetrics, *trace.Tracer, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m, b.tracer, b.reg != nil
}

// NewBase builds a base.
func NewBase(cfg BaseConfig) (*Base, error) {
	if cfg.Caller == nil || cfg.Signer == nil {
		return nil, fmt.Errorf("core: base needs Caller and Signer")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.LeaseDur <= 0 {
		cfg.LeaseDur = 10 * time.Second
	}
	if cfg.RenewFraction <= 0 || cfg.RenewFraction >= 1 {
		cfg.RenewFraction = 0.5
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 2 * time.Second
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.RenewTick <= 0 {
		// A quarter of the renewal window: a fresh lease's first renewal
		// quantises to exactly window*fraction (4 ticks), and the retry gap
		// for small retry counts stays inside the remaining slack.
		cfg.RenewTick = time.Duration(float64(cfg.LeaseDur) * cfg.RenewFraction / 4)
	}
	if cfg.RenewTick < time.Millisecond {
		cfg.RenewTick = time.Millisecond
	}
	b := &Base{
		cfg: cfg,
		// nil Policy / nil Breaker leave the caller bare. The breaker wraps
		// outermost so an open circuit fast-fails before the retry loop runs.
		caller:        cfg.Breaker.Wrap(cfg.Policy.Wrap(cfg.Caller)),
		nodes:         newNodeTable(cfg.Shards),
		reports:       make(map[string]AnalysisReport),
		signed:        make(map[string]SignedExtension),
		lastReconcile: make(map[string]ReconcileResult),
	}
	b.sched = lease.NewScheduler(cfg.Clock, lease.SchedulerConfig{
		Tick:     cfg.RenewTick,
		Fraction: cfg.RenewFraction,
		Retries:  cfg.RenewRetries,
		MaxBatch: cfg.RenewBatch,
		Workers:  cfg.RenewWorkers,
		Renew:    b.renewNodeBatch,
		OnRenew:  b.noteRenewals,
		OnNodeFail: func(node string, err error) {
			// Renewals failed for good: the node is out of reach. Handle the
			// departure asynchronously so a slow roam hint never stalls the
			// renewal workers serving other nodes.
			go b.nodeDeparted(node)
		},
	})
	if cfg.ReconcileEvery > 0 {
		b.reconcileStop = make(chan struct{})
		b.reconcileDone = make(chan struct{})
		go b.reconcileLoop()
	}
	return b, nil
}

// ScheduledRenewals reports how many leases the renewal scheduler is keeping
// alive — O(shards + wheels) goroutines do that work, not O(leases).
func (b *Base) ScheduledRenewals() int { return b.sched.Len() }

// RenewalsQuiesced reports whether the renewal scheduler, and the lookup
// watch's keeper if any, have fully processed every elapsed wheel tick with
// no renew calls queued or in flight. Deterministic tests use it as a
// barrier between manual clock steps.
func (b *Base) RenewalsQuiesced() bool {
	w := b.watch.Load()
	return b.sched.Quiesced() && (w == nil || w.Quiesced())
}

// RenewalBacklog reports renewals due but not yet completed — queued plus in
// flight. A persistently non-zero backlog means the renewal workers are not
// keeping up with the wheel; /healthz exposes it for exactly that reason.
func (b *Base) RenewalBacklog() int { return b.sched.Backlog() }

// signedFor returns ext signed by this base, caching per name@version: a
// fleet-scale adapt round signs each extension once, not once per node.
func (b *Base) signedFor(ext Extension) (SignedExtension, error) {
	key := fmt.Sprintf("%s@%d", ext.Name, ext.Version)
	b.mu.Lock()
	s, ok := b.signed[key]
	b.mu.Unlock()
	if ok {
		return s, nil
	}
	s, err := Sign(b.cfg.Signer, ext)
	if err != nil {
		return SignedExtension{}, err
	}
	b.mu.Lock()
	b.signed[key] = s
	b.mu.Unlock()
	return s, nil
}

// Signer returns the base's signing identity (receivers must trust its
// public key).
func (b *Base) Signer() *sign.Signer { return b.cfg.Signer }

// Trace records the base's lifecycle (adapt, push, renew, revoke, depart) as
// spans in tr, wraps the base's outbound caller so calls carry trace context
// across the fabric, and — when a Policy is configured — makes each retry
// attempt a child span. Call before the base starts serving; a nil tr is a
// no-op.
func (b *Base) Trace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	b.mu.Lock()
	b.tracer = tr
	b.mu.Unlock()
	b.caller = transport.TraceCalls(b.caller, tr)
	b.cfg.Policy.Trace(tr)
	b.cfg.Breaker.Trace(tr)
}

func (b *Base) traceRef() *trace.Tracer {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tracer
}

// OnDepart registers a callback invoked when a node's lease renewals fail.
func (b *Base) OnDepart(fn func(nodeAddr string)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onDepart = fn
}

// AddNeighbor registers a neighbour base that receives roaming hints when
// nodes depart this base's area.
func (b *Base) AddNeighbor(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.neighbors = append(b.neighbors, addr)
}

// admit runs the static admission pipeline over ext: analyze (typed
// verification, capability inference, cost bounds), then check the inferred
// demand against the declaration and the base's Admission policy. A rejection
// increments base.admission_rejected; an accepted extension's report is
// stored for /analyze. The whole decision is one traced
// "base.admit" span.
func (b *Base) admit(ext Extension) error {
	_, sp := b.traceRef().StartSpan(context.Background(), "base.admit")
	sp.Tag("ext", ext.Name)
	err := func() error {
		rep, err := AnalyzeExtension(ext)
		if err != nil {
			return err
		}
		sp.Annotatef("inferred caps %v flows %v", rep.Caps, rep.Flows)
		if err := CheckAdmission(ext, rep, b.cfg.Admission, b.cfg.AdmissionFlows, b.cfg.Signer.Name); err != nil {
			return err
		}
		b.mu.Lock()
		b.reports[ext.Name] = *rep
		b.mu.Unlock()
		return nil
	}()
	sp.End(err)
	if err != nil {
		var fe *FlowError
		isFlow := errors.As(err, &fe)
		b.mu.Lock()
		b.m.admRejected.Inc()
		if isFlow {
			b.m.admFlowRejected.Inc()
		}
		b.mu.Unlock()
		b.log("admit-reject", "", ext.Name, err.Error())
	}
	return err
}

// AnalysisFor returns the stored admission report of a policy-set extension.
func (b *Base) AnalysisFor(name string) (AnalysisReport, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rep, ok := b.reports[name]
	return rep, ok
}

// AddExtension analyses ext, admits it against the base's admission policy,
// adds it to the policy set and pushes it to every currently adapted node. An
// extension whose inferred capability demand exceeds its declaration or the
// admission policy never gets signed or pushed.
func (b *Base) AddExtension(ext Extension) error {
	if err := ext.Validate(); err != nil {
		return err
	}
	if err := b.admit(ext); err != nil {
		return err
	}
	b.mu.Lock()
	for _, e := range b.extensions {
		if e.Name == ext.Name {
			b.mu.Unlock()
			return fmt.Errorf("core: base already has extension %q (use ReplaceExtension)", ext.Name)
		}
	}
	b.extensions = append(b.extensions, ext)
	b.mu.Unlock()

	b.pushToAllNodes(ext)
	return nil
}

// pushToAllNodes distributes one extension to every adapted node, one worker
// goroutine per shard — an adapt round parallelises across shards instead of
// serialising under a global lock.
func (b *Base) pushToAllNodes(ext Extension) {
	var wg sync.WaitGroup
	for i := range b.nodes.shards {
		s := &b.nodes.shards[i]
		s.mu.Lock()
		nodes := make([]*adaptedNode, 0, len(s.adapted))
		for _, n := range s.adapted {
			nodes = append(nodes, n)
		}
		s.mu.Unlock()
		if len(nodes) == 0 {
			continue
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a].addr < nodes[b].addr })
		wg.Add(1)
		go func(nodes []*adaptedNode) {
			defer wg.Done()
			for _, n := range nodes {
				if err := b.pushExtension(context.Background(), n, ext); err != nil {
					b.log("push", n.id, ext.Name, "failed: "+err.Error())
				}
			}
		}(nodes)
	}
	wg.Wait()
}

// ReplaceExtension swaps in a newer version of an existing extension and
// pushes it to every adapted node (policy evolution, §3.2).
func (b *Base) ReplaceExtension(ext Extension) error {
	if err := ext.Validate(); err != nil {
		return err
	}
	if err := b.admit(ext); err != nil {
		return err
	}
	b.mu.Lock()
	found := false
	for i, e := range b.extensions {
		if e.Name == ext.Name {
			if ext.Version <= e.Version {
				b.mu.Unlock()
				return fmt.Errorf("core: replacement of %q needs version > %d", ext.Name, e.Version)
			}
			b.extensions[i] = ext
			found = true
			break
		}
	}
	if !found {
		b.mu.Unlock()
		return fmt.Errorf("core: base has no extension %q", ext.Name)
	}
	b.mu.Unlock()

	b.pushToAllNodes(ext)
	return nil
}

// RemoveExtension drops ext from the policy set and revokes it from all
// adapted nodes.
func (b *Base) RemoveExtension(name string) error {
	b.mu.Lock()
	idx := -1
	for i, e := range b.extensions {
		if e.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		b.mu.Unlock()
		return fmt.Errorf("core: base has no extension %q", name)
	}
	b.extensions = append(b.extensions[:idx], b.extensions[idx+1:]...)
	delete(b.reports, name)
	b.mu.Unlock()

	var wg sync.WaitGroup
	for i := range b.nodes.shards {
		s := &b.nodes.shards[i]
		s.mu.Lock()
		nodes := make([]*adaptedNode, 0, len(s.adapted))
		for _, n := range s.adapted {
			nodes = append(nodes, n)
		}
		s.mu.Unlock()
		if len(nodes) == 0 {
			continue
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a].addr < nodes[b].addr })
		wg.Add(1)
		go func(nodes []*adaptedNode) {
			defer wg.Done()
			for _, n := range nodes {
				b.stopTracking(n.addr, name)
				err := b.revokeExtension(context.Background(), n, name)
				detail := ""
				if err != nil {
					detail = "failed: " + err.Error()
				}
				b.log("revoke", n.id, name, detail)
			}
		}(nodes)
	}
	wg.Wait()
	return nil
}

// revokeExtension withdraws one extension at one node, inside the trace that
// installed it there. The caller logs the outcome.
func (b *Base) revokeExtension(ctx context.Context, n *adaptedNode, name string) error {
	tr := b.traceRef()
	rctx, sp := tr.StartSpan(trace.NewContext(ctx, b.pushSpanCtx(n.addr, name)), "base.revoke")
	sp.Tag("ext", name)
	sp.Tag("node", n.id)
	ictx := transport.WithCallDeadline(rctx, b.cfg.CallTimeout)
	_, err := transport.Invoke[RevokeReq, EmptyResp](ictx, b.caller, n.addr, MethodRevoke, RevokeReq{Name: name})
	ictx.Cancel()
	sp.End(err)
	return err
}

// pushSpanCtx returns the span context under which ext was pushed to the
// node at addr, or the zero context.
func (b *Base) pushSpanCtx(nodeAddr, extName string) trace.SpanContext {
	s := b.nodes.shard(nodeAddr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.adapted[nodeAddr]; ok {
		return n.spanCtxs[extName]
	}
	return trace.SpanContext{}
}

// Extensions lists the base's policy set names in order.
func (b *Base) Extensions() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, len(b.extensions))
	for i, e := range b.extensions {
		out[i] = e.Name
	}
	return out
}

// AdaptNode pushes every extension of the policy set to the node's
// adaptation service and starts keeping the leases alive.
func (b *Base) AdaptNode(nodeID, nodeAddr string) error {
	return b.AdaptNodeCtx(context.Background(), nodeID, nodeAddr)
}

// AdaptNodeCtx is AdaptNode joining the trace carried by ctx (e.g. the
// discovery announcement that surfaced the node); without one it roots a new
// trace.
func (b *Base) AdaptNodeCtx(ctx context.Context, nodeID, nodeAddr string) error {
	if b.closed.Load() {
		return fmt.Errorf("core: base %s is closed", b.cfg.Name)
	}
	s := b.nodes.shard(nodeAddr)
	s.mu.Lock()
	if _, dup := s.adapted[nodeAddr]; dup {
		s.mu.Unlock()
		return nil // already adapted
	}
	if _, deg := s.degraded[nodeAddr]; deg {
		// The node is back from a partition, not newly arrived: reconcile its
		// inventory instead of blindly re-pushing the whole policy set.
		s.mu.Unlock()
		res := b.reconcileNode(ctx, nodeAddr)
		if res.Err != "" {
			return fmt.Errorf("core: reconcile %s: %s", nodeAddr, res.Err)
		}
		return nil
	}
	n := newAdaptedNode(nodeID, nodeAddr)
	s.adapted[nodeAddr] = n
	s.mu.Unlock()
	b.mu.Lock()
	exts := append([]Extension(nil), b.extensions...)
	b.mu.Unlock()

	ctx, sp := b.traceRef().StartSpan(ctx, "base.adapt")
	sp.Tag("node", nodeID)
	sp.Annotatef("%d extensions to push", len(exts))

	b.log("adapt", nodeID, "", fmt.Sprintf("%d extensions", len(exts)))
	// The whole policy set rides one batched apply when the peer supports it.
	installErrs, _ := b.applyToNode(ctx, n, exts, nil)
	var firstErr error
	for _, ext := range exts {
		if err := installErrs[ext.Name]; err != nil {
			b.log("push", nodeID, ext.Name, "failed: "+err.Error())
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	sp.End(firstErr)
	if firstErr != nil {
		// Nothing woven anywhere reachable: forget the node so a later
		// attempt can retry cleanly.
		s.mu.Lock()
		if len(n.grants) == 0 && s.adapted[nodeAddr] == n {
			delete(s.adapted, nodeAddr)
		}
		s.mu.Unlock()
	}
	return firstErr
}

// Adapted lists the addresses of currently adapted nodes, sorted.
func (b *Base) Adapted() []string {
	return b.nodes.adaptedAddrs()
}

// Activity returns the distribution log.
func (b *Base) Activity() []BaseActivity {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BaseActivity, len(b.activity))
	copy(out, b.activity)
	return out
}

// Release stops renewing all leases held at the node and forgets it (journal
// record included — the release is deliberate); the receiver will expire and
// withdraw the extensions on its own (§3.2's revocation path).
func (b *Base) Release(nodeAddr string) {
	s := b.nodes.shard(nodeAddr)
	s.mu.Lock()
	n, ok := s.adapted[nodeAddr]
	if ok {
		delete(s.adapted, nodeAddr)
	}
	_, wasDegraded := s.degraded[nodeAddr]
	delete(s.degraded, nodeAddr)
	s.mu.Unlock()
	b.sched.CancelNode(nodeAddr)
	if ok || wasDegraded {
		if err := b.cfg.Journal.DeleteNode(nodeAddr); err != nil {
			b.metricsRef().journalErrs.Inc()
		}
	}
	if ok {
		b.log("depart", n.id, "", "released")
	}
}

// Close stops the reconciler and the renewal scheduler. Unlike Release it
// keeps the journal records: a graceful shutdown is indistinguishable from a
// crash on restart, and Recover resumes the same state either way.
func (b *Base) Close() {
	if b.closed.Swap(true) {
		return
	}
	b.mu.Lock()
	stop := b.reconcileStop
	done := b.reconcileDone
	b.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	if w := b.watch.Swap(nil); w != nil {
		w.Stop()
	}
	nodes := b.nodes.clear()
	b.sched.Stop()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].addr < nodes[j].addr })
	for _, n := range nodes {
		b.log("depart", n.id, "", "released")
	}
	m := b.metricsRef()
	m.adapted.Set(0)
	m.degraded.Set(0)
}

// Recover replays the base journal after a crash or restart: every
// non-degraded node is re-adopted with its renewers resumed on the remaining
// lease window (a deadline that already passed triggers an immediate renewal
// attempt, whose failure flows into the normal departure path), and degraded
// nodes stay parked for reconciliation. Returns the number of nodes whose
// renewals were resumed.
func (b *Base) Recover() (int, error) {
	recs, err := b.cfg.Journal.Nodes()
	if err != nil {
		return 0, err
	}
	addrs := make([]string, 0, len(recs))
	for a := range recs {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	now := b.cfg.Clock.Now()
	restored := 0
	for _, addr := range addrs {
		rec := recs[addr]
		if b.closed.Load() {
			break
		}
		s := b.nodes.shard(addr)
		if rec.Degraded {
			s.mu.Lock()
			if _, dup := s.adapted[addr]; !dup {
				s.degraded[addr] = rec.ID
			}
			s.mu.Unlock()
			b.log("degrade", rec.ID, "", "restored from journal; awaiting reconciliation")
			continue
		}
		n := newAdaptedNode(rec.ID, addr)
		s.mu.Lock()
		if _, dup := s.adapted[addr]; dup {
			s.mu.Unlock()
			continue
		}
		s.adapted[addr] = n
		s.mu.Unlock()
		names := make([]string, 0, len(rec.Exts))
		for name := range rec.Exts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			gr := rec.Exts[name]
			g := grantInfo{
				version:  gr.Version,
				leaseID:  lease.ID(gr.LeaseID),
				dur:      time.Duration(gr.DurMillis) * time.Millisecond,
				deadline: time.UnixMilli(gr.DeadlineMillis),
			}
			if g.dur <= 0 {
				g.dur = b.cfg.LeaseDur
			}
			b.trackGrant(n, name, g, g.deadline.Sub(now), trace.SpanContext{})
		}
		restored++
		b.log("recover", rec.ID, "", fmt.Sprintf("%d leases resumed", len(rec.Exts)))
	}
	return restored, nil
}

// Degraded lists the addresses of nodes parked for reconciliation, sorted.
func (b *Base) Degraded() []string {
	return b.nodes.degradedAddrs()
}

func (b *Base) pushExtension(ctx context.Context, n *adaptedNode, ext Extension) error {
	tr := b.traceRef()
	pctx, sp := tr.StartSpan(ctx, "base.push")
	sp.Tag("ext", ext.Name)
	sp.Tag("node", n.id)
	signed, err := b.signedFor(ext)
	if err != nil {
		sp.End(err)
		return err
	}
	ictx := transport.WithCallDeadline(pctx, b.cfg.CallTimeout)
	resp, err := transport.Invoke[InstallReq, InstallResp](ictx, b.caller, n.addr, MethodInstall, InstallReq{
		Signed:    signed,
		BaseAddr:  b.cfg.Addr,
		DurMillis: b.cfg.LeaseDur.Milliseconds(),
	})
	ictx.Cancel()
	if err != nil {
		sp.End(err)
		return fmt.Errorf("core: push %q to %s: %w", ext.Name, n.addr, err)
	}
	// Capture the identity before End: a sampled-out span is recycled there,
	// and Context on the recycled handle would mint an ID for whatever span
	// owns the pooled storage next.
	pushSC := sp.Context()
	sp.End(nil)
	b.log("push", n.id, ext.Name, "")

	// Keep the extension alive until the node leaves our space.
	g := grantInfo{
		version:  ext.Version,
		leaseID:  lease.ID(resp.LeaseID),
		dur:      b.cfg.LeaseDur,
		deadline: b.cfg.Clock.Now().Add(b.cfg.LeaseDur),
	}
	if !b.trackGrant(n, ext.Name, g, b.cfg.LeaseDur, pushSC) {
		// The node departed (or the base closed) while the push was in
		// flight: there is no tracked node to keep alive, so no renewal is
		// scheduled — the receiver's lease will lapse on its own.
		b.log("push", n.id, ext.Name, "node gone mid-push; lease left to expire")
	}
	return nil
}

// trackGrant records the lease granted for ext at n and hands it to the
// renewal scheduler — unless the node was concurrently departed or the base
// closed, in which case nothing is registered (a scheduled renewal for an
// untracked node would leak: nobody would ever cancel it). window is the
// first lease window to renew within (the full lease on a fresh push, the
// remaining time to the journalled deadline on recovery). Reports whether the
// grant was tracked; on success the node is checkpointed.
func (b *Base) trackGrant(n *adaptedNode, extName string, g grantInfo, window time.Duration, sc trace.SpanContext) bool {
	if window <= 0 {
		// The journalled deadline already passed: schedule an immediate
		// renewal attempt; if the receiver expired the lease, the failure
		// flows into the ordinary departure/degradation path.
		window = time.Millisecond
	}
	s := b.nodes.shard(n.addr)
	s.mu.Lock()
	if b.closed.Load() || s.adapted[n.addr] != n {
		s.mu.Unlock()
		return false
	}
	if old, dup := n.grants[extName]; dup && old.leaseID != g.leaseID {
		// Replaced mid-flight (e.g. a version upgrade): the old lease is no
		// longer ours to keep alive.
		b.sched.Cancel(n.addr, old.leaseID)
	}
	if n.spanCtxs == nil {
		n.spanCtxs = make(map[string]trace.SpanContext)
	}
	n.spanCtxs[extName] = sc
	if n.grants == nil {
		n.grants = make(map[string]grantInfo)
	}
	n.grants[extName] = g
	b.journalNode(n)
	b.sched.Add(n.addr, g.leaseID, extName, window)
	s.mu.Unlock()
	return true
}

// noteRenewals records one renew call's successful renewals — their new
// absolute deadlines — and checkpoints the node once. It is the scheduler's
// OnRenew callback; each renewal names the extension its lease was added
// under, and only counts while that extension's grant still holds the lease.
func (b *Base) noteRenewals(node string, renewed []lease.Renewal) {
	s := b.nodes.shard(node)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.adapted[node]
	if !ok {
		return
	}
	now := b.cfg.Clock.Now()
	changed := false
	for _, r := range renewed {
		g, held := n.grants[r.Name]
		if !held || g.leaseID != r.ID {
			continue
		}
		g.dur = r.Granted
		g.deadline = now.Add(r.Granted)
		n.grants[r.Name] = g
		changed = true
	}
	if changed {
		b.journalNode(n)
	}
}

// journalNode checkpoints one node's record. Callers hold the node's shard
// lock.
func (b *Base) journalNode(n *adaptedNode) {
	if b.cfg.Journal == nil {
		return
	}
	rec := NodeRecord{ID: n.id, Exts: make(map[string]GrantRecord, len(n.grants))}
	for name, g := range n.grants {
		rec.Exts[name] = GrantRecord{
			Version:        g.version,
			LeaseID:        string(g.leaseID),
			DurMillis:      g.dur.Milliseconds(),
			DeadlineMillis: g.deadline.UnixMilli(),
		}
	}
	if err := b.cfg.Journal.PutNode(n.addr, rec); err != nil {
		b.metricsRef().journalErrs.Inc()
	}
}

func (b *Base) nodeDeparted(nodeAddr string) {
	// Whatever the node's fate, its scheduled renewals stop now; degraded
	// nodes re-enter through reconciliation, which re-arms the scheduler.
	b.sched.CancelNode(nodeAddr)

	// When the node's circuit is open the link is down but the node may well
	// still be in our space: park it as degraded for reconciliation instead
	// of treating it as a departure (no roam hints — it did not move).
	degrade := b.cfg.Breaker.State(nodeAddr) != transport.BreakerClosed
	if b.closed.Load() {
		degrade = false
	}

	s := b.nodes.shard(nodeAddr)
	s.mu.Lock()
	n, ok := s.adapted[nodeAddr]
	if ok {
		delete(s.adapted, nodeAddr)
		if degrade {
			s.degraded[nodeAddr] = n.id
		}
	}
	s.mu.Unlock()
	b.mu.Lock()
	neighbors := append([]string(nil), b.neighbors...)
	cb := b.onDepart
	b.mu.Unlock()
	if !ok {
		return
	}
	tr := b.traceRef()
	if degrade {
		_, dsp := tr.StartSpan(context.Background(), "base.degrade")
		dsp.Tag("node", n.id)
		dsp.Annotatef("circuit open; parked for reconciliation")
		dsp.End(nil)
		tr.Eventf(nil, "base", "node %s degraded (circuit open); awaiting reconciliation", n.id)
		b.log("degrade", n.id, "", "circuit open; awaiting reconciliation")
		// Keep the journal record but flag it, so a restarted base knows to
		// reconcile rather than resume renewals.
		if b.cfg.Journal != nil {
			s.mu.Lock()
			rec := NodeRecord{ID: n.id, Degraded: true, Exts: make(map[string]GrantRecord, len(n.grants))}
			for name, g := range n.grants {
				rec.Exts[name] = GrantRecord{
					Version:        g.version,
					LeaseID:        string(g.leaseID),
					DurMillis:      g.dur.Milliseconds(),
					DeadlineMillis: g.deadline.UnixMilli(),
				}
			}
			s.mu.Unlock()
			if err := b.cfg.Journal.PutNode(nodeAddr, rec); err != nil {
				b.metricsRef().journalErrs.Inc()
			}
		}
		return
	}
	if err := b.cfg.Journal.DeleteNode(nodeAddr); err != nil {
		b.metricsRef().journalErrs.Inc()
	}
	_, dsp := tr.StartSpan(context.Background(), "base.depart")
	dsp.Tag("node", n.id)
	dsp.Annotatef("lease renewal failed")
	dsp.End(nil)
	tr.Eventf(nil, "base", "node %s departed (lease renewal failed)", n.id)
	b.log("depart", n.id, "", "lease renewal failed")

	// Simple roaming: hint neighbour bases that the node may have entered
	// their area.
	for _, nb := range neighbors {
		ctx := transport.WithCallDeadline(context.Background(), b.cfg.CallTimeout)
		_, err := transport.Invoke[RoamReq, EmptyResp](ctx, b.caller, nb, MethodBaseRoam,
			RoamReq{NodeID: n.id, NodeAddr: n.addr})
		ctx.Cancel()
		detail := nb
		if err != nil {
			detail = nb + " failed: " + err.Error()
		}
		b.log("roam-hint", n.id, "", detail)
	}
	if cb != nil {
		cb(nodeAddr)
	}
}

// stopTracking forgets the grant for extName at nodeAddr and cancels its
// scheduled renewal. The push span context is kept: revocation spans join the
// original install trace even after the grant is gone.
func (b *Base) stopTracking(nodeAddr, extName string) {
	s := b.nodes.shard(nodeAddr)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.adapted[nodeAddr]
	if !ok {
		return
	}
	if g, held := n.grants[extName]; held {
		b.sched.Cancel(nodeAddr, g.leaseID)
	}
	delete(n.grants, extName)
	b.journalNode(n)
}

func (b *Base) log(ev, node, ext, detail string) {
	// Gauge values come from the shard table; compute them before taking
	// b.mu (lock order: shard locks never follow b.mu).
	nAdapted, nDegraded := b.nodes.counts()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.activity = append(b.activity, BaseActivity{
		AtMillis: b.cfg.Clock.Now().UnixMilli(),
		Event:    ev,
		Node:     node,
		Ext:      ext,
		Detail:   detail,
	})
	switch ev {
	case "adapt":
		b.m.adapts.Inc()
	case "push":
		if detail == "" {
			b.m.pushes.Inc()
		} else {
			b.m.pushErrors.Inc()
		}
	case "depart":
		b.m.departures.Inc()
	case "revoke":
		b.m.revokes.Inc()
	case "roam-hint":
		b.m.roamHints.Inc()
	case "degrade":
		b.m.degrades.Inc()
	case "recover":
		b.m.recovers.Inc()
	}
	b.m.adapted.Set(int64(nAdapted))
	b.m.degraded.Set(int64(nDegraded))
}

// ServeOn registers the base's RPC surface on mux: the monitoring record
// sink, the lookup watcher callback and the roaming hint endpoint. Operator
// reads are documents (see Mounts), served over the ops RPC.
func (b *Base) ServeOn(mux *transport.Mux) {
	transport.Register(mux, MethodBasePost, func(_ context.Context, req PostReq) (EmptyResp, error) {
		if b.cfg.Store == nil {
			return EmptyResp{}, fmt.Errorf("core: base %s has no store", b.cfg.Name)
		}
		_, err := b.cfg.Store.Append(req.Record)
		return EmptyResp{}, err
	})
	transport.Register(mux, MethodBaseOnService, func(ctx context.Context, n event.Notification) (event.Ack, error) {
		var ev registry.Event
		if err := n.DecodeBody(&ev); err != nil {
			return event.Ack{}, err
		}
		if ev.Kind == registry.Added && ev.Item.Name == AdaptationService {
			// Adapt inside the trace of the discovery announcement: prefer
			// the span context delivered with the request, falling back to
			// the one stamped on the registry event itself.
			actx := trace.Detach(ctx)
			if _, ok := trace.FromContext(actx); !ok {
				actx = trace.NewContext(actx, ev.Trace)
			}
			go func() { _ = b.AdaptNodeCtx(actx, ev.Item.ID, ev.Item.Addr) }()
		}
		return event.Ack{}, nil
	})
	transport.Register(mux, MethodBaseRoam, func(ctx context.Context, req RoamReq) (EmptyResp, error) {
		actx := trace.Detach(ctx)
		go func() { _ = b.AdaptNodeCtx(actx, req.NodeID, req.NodeAddr) }()
		return EmptyResp{}, nil
	})
}

// WatchLookup subscribes the base to adaptation-service arrivals at the
// lookup service behind client, and adapts all already-registered nodes. The
// watch is leased for watchDur and kept alive on a registry.Keep scheduler
// until Close. The base must already be served on its own mux (ServeOn) so
// the watcher callback can reach it.
func (b *Base) WatchLookup(client *registry.Client, watchDur time.Duration) (string, error) {
	watchID, err := client.Watch(registry.Template{Name: AdaptationService}, watchDur, b.cfg.Addr, MethodBaseOnService)
	if err != nil {
		return "", fmt.Errorf("core: watch lookup: %w", err)
	}
	if old := b.watch.Swap(registry.Keep(b.cfg.Clock, nil, watchID, watchDur, client.RenewWatch)); old != nil {
		old.Stop()
	}
	items, err := client.Find(registry.Template{Name: AdaptationService})
	if err != nil {
		return watchID, fmt.Errorf("core: initial find: %w", err)
	}
	for _, it := range items {
		go func(it registry.ServiceItem) { _ = b.AdaptNode(it.ID, it.Addr) }(it)
	}
	return watchID, nil
}
