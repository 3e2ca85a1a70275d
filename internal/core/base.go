package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
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
)

// RPC method names served by a base.
const (
	MethodBasePost      = "base.post"      // monitoring extensions post records here
	MethodBaseOnService = "base.onservice" // lookup watcher callback
)

// PostReq delivers one monitoring record to a base.
type PostReq struct {
	Record store.Record
}

// BaseConfig assembles an extension base.
type BaseConfig struct {
	Name   string
	Addr   string // transport address the base serves on
	Caller transport.Caller
	Signer *sign.Signer
	Clock  clock.Clock
	Store  *store.Store // optional sink for monitoring records

	// LeaseDur is the lease granted per pushed extension (default 10s);
	// RenewFraction controls when renewals fire (default 0.5). A failed
	// renewal is retried on each later tick of the renewal wheel (an eighth
	// of the renewal window) that still leaves a tick before the lease ends,
	// so a lost message on a lossy wireless link does not depart the node.
	LeaseDur      time.Duration
	RenewFraction float64
	// CallTimeout bounds each RPC attempt (default 2s); a renewal that times
	// out is retried like any other failed renewal.
	CallTimeout time.Duration
	// Journal, when set, checkpoints the base's distribution state (adapted
	// nodes, pushed extensions, lease deadlines) so Recover can resume
	// renewals after a crash.
	Journal *BaseJournal
	// ReconcileEvery, when > 0, runs the anti-entropy reconciler periodically:
	// every adapted or degraded node's inventory is diffed against the policy
	// set, missing extensions re-pushed, orphans revoked and receiver lease
	// deadlines adopted. With a reconciler, a node whose renewal cycle got no
	// answer is parked degraded for it instead of departed.
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
	// different locks (default 8). It is lock striping only: how many nodes
	// a policy change or a reconcile round works on at once is policyFanOut.
	Shards int
	// RenewBatch caps how many of a node's due leases coalesce into one
	// batched midas.renewBatch RPC (default 64). One timer wheel plus
	// RenewWorkers workers keep every extension lease alive, not one
	// goroutine per lease. RenewWorkers bounds
	// concurrent renew RPCs (default 1, which keeps traced scenarios
	// deterministic; fleet-scale deployments raise it).
	RenewBatch   int
	RenewWorkers int
}

// BaseActivity is one entry of the base's distribution log (§3.2: each base
// keeps track of what nodes were adapted, at what point in time).
type BaseActivity struct {
	AtMillis int64
	Event    string // "adapt", "push", "depart", "revoke", "degrade", "recover", "reconcile", "rewatch"
	Node     string
	Ext      string
	Detail   string
}

type adaptedNode struct {
	id   string
	addr string
	// grants mirrors the lease state per pushed extension; it is what the
	// journal checkpoints, so deadlines are absolute. An extension present
	// here is being kept alive by the base's renewal scheduler. Entries are
	// pointers, so a renewal updates its grant in place.
	grants map[string]*grantInfo
}

// grantInfo is the base's view of one pushed extension's lease.
type grantInfo struct {
	version  int
	leaseID  lease.ID
	dur      time.Duration
	deadline time.Time
	// sc is the span under which the push succeeded, so renewals and the
	// revoke join the install's trace.
	sc trace.SpanContext
}

func newAdaptedNode(id, addr string) *adaptedNode {
	return &adaptedNode{
		id:     id,
		addr:   addr,
		grants: make(map[string]*grantInfo),
	}
}

// Base is a MIDAS extension base: it holds the extension set of one
// environment, adapts arriving nodes, keeps the distributed extensions alive
// and notices departures through failing renewals.
type Base struct {
	cfg    BaseConfig
	caller transport.Caller // cfg.Caller, wrapped by Instrument and Trace
	// countTags holds strconv.Itoa(i) for every renewal batch size i up to
	// cfg.RenewBatch, so a batch span's leases tag never formats a number
	// (strconv.Itoa allocates from 100 on). Read-only after NewBase.
	countTags []string

	// nodes shards the adapted/degraded node state; sched keeps every pushed
	// extension's lease alive on one timer wheel. closed is atomic so shard
	// paths check it without the config lock. Lock order: a shard's mu may be
	// held while taking b.mu or a scheduler lock, never the reverse.
	nodes  *nodeTable
	sched  *lease.Scheduler
	closed atomic.Bool
	// watch keeps the lookup watch (WatchLookup) alive; Close stops it.
	// watchLost holds the error its keeper lost the watch with, until a
	// re-watch re-establishes it.
	watch     atomic.Pointer[lease.Scheduler]
	watchLost atomic.Pointer[error]
	// vetted keeps the analysis of advice bodies admission has vetted, so a
	// version that reuses a body is not analysed again. Own lock.
	vetted adviceCache

	mu sync.Mutex
	// extensions is the policy set, each extension signed once when
	// AddExtension or ReplaceExtension admitted it: every push to every node
	// sends these signed forms.
	extensions []SignedExtension
	// reports holds the admission analysis of every accepted extension, by
	// name; served at /analyze and read by midasctl analyze.
	reports       map[string]AnalysisReport
	lastReconcile map[string]ReconcileResult
	stats         DriftCounters
	activity      ring[BaseActivity]
	reg           *metrics.Registry
	m             baseMetrics
	tracer        *trace.Tracer

	// stop is closed by Close: it ends the reconcile loop (which closes
	// reconcileDone when it runs) and a lost lookup watch's re-watch waits.
	stop          chan struct{}
	reconcileDone chan struct{}

	onDepart func(nodeAddr string)

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
// departures and revocations in reg, plus the adapted-node gauge. The
// renewal scheduler that keeps pushed extensions alive joins the same
// registry.
// A nil reg is a no-op.
func (b *Base) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	b.sched.Instrument(reg)
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
	b.vetted.instrument(reg.Counter("base.analyses_reused"))
	b.setNodeGauges()
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
	if cfg.RenewBatch <= 0 {
		cfg.RenewBatch = 64
	}
	countTags := make([]string, cfg.RenewBatch+1)
	for i := range countTags {
		countTags[i] = strconv.Itoa(i)
	}
	b := &Base{
		cfg:           cfg,
		caller:        cfg.Caller,
		nodes:         newNodeTable(cfg.Shards),
		reports:       make(map[string]AnalysisReport),
		lastReconcile: make(map[string]ReconcileResult),
		countTags:     countTags,
		stop:          make(chan struct{}),
	}
	b.sched = lease.NewScheduler(cfg.Clock, lease.SchedulerConfig{
		Tick:     b.renewTick(),
		Fraction: cfg.RenewFraction,
		MaxBatch: cfg.RenewBatch,
		Workers:  cfg.RenewWorkers,
		Renew:    b.renewNodeBatch,
		OnRenew:  b.noteRenewals,
		OnNodeFail: func(node string, err error) {
			// A renewal cycle failed for good. Handle the node's departure
			// asynchronously so a slow OnDepart callback never stalls the
			// renewal workers serving other nodes.
			go b.nodeDeparted(node, err)
		},
	})
	if cfg.ReconcileEvery > 0 {
		b.reconcileDone = make(chan struct{})
		go b.reconcileLoop()
	}
	return b, nil
}

// renewTick is the renewal wheel's tick, an eighth of the renewal window: a
// fresh lease's first renewal quantises to exactly window*fraction (8
// ticks), and at the default fraction seven retries fit in the slack before
// the lease ends, as for a registry.Keep keeper.
func (b *Base) renewTick() time.Duration {
	return max(time.Duration(float64(b.cfg.LeaseDur)*b.cfg.RenewFraction/8), time.Millisecond)
}

// adoptable reports whether a live lease with window left is worth
// adopting: its renewal, due at window*fraction, must leave two ticks of
// slack, room for one in-lease retry. Reconciliation refreshes a shorter one
// with a re-push instead, so one lost message cannot depart the node.
func (b *Base) adoptable(window time.Duration) bool {
	return float64(window)*(1-b.cfg.RenewFraction) >= float64(2*b.renewTick())
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

// Trace records the base's lifecycle (adapt, push, renew, revoke, depart) as
// spans in tr, and wraps the base's outbound caller so calls carry trace
// context across the fabric. Call before the base starts serving; a nil tr
// is a no-op.
func (b *Base) Trace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	b.mu.Lock()
	b.tracer = tr
	b.mu.Unlock()
	b.caller = transport.TraceCalls(b.caller, tr)
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

// admit runs the static admission pipeline over ext: analyze (typed
// verification, capability inference, cost bounds; a body the base has
// vetted before reuses its analysis), then check the inferred demand against
// the declaration and the base's Admission policy, and sign an extension that
// passes. A rejection increments base.admission_rejected. The whole decision
// is one traced "base.admit" span. The caller stores the signed extension and
// its report when it changes the policy set.
func (b *Base) admit(ext Extension) (SignedExtension, *AnalysisReport, error) {
	_, sp := b.traceRef().StartSpan(context.Background(), "base.admit")
	sp.Tag("ext", ext.Name)
	var signed SignedExtension
	rep, _, err := analyzeExtension(ext, &b.vetted)
	if err == nil {
		sp.Annotatef("inferred caps %v flows %v", rep.Caps, rep.Flows)
		err = CheckAdmission(ext, rep, b.cfg.Admission, b.cfg.AdmissionFlows, b.cfg.Signer.Name)
	}
	if err == nil {
		signed, err = Sign(b.cfg.Signer, ext)
	}
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
		return SignedExtension{}, nil, err
	}
	return signed, rep, nil
}

// AnalysisFor returns the stored admission report of a policy-set extension.
func (b *Base) AnalysisFor(name string) (AnalysisReport, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rep, ok := b.reports[name]
	return rep, ok
}

// AddExtension analyses ext, admits it against the base's admission policy,
// signs it into the policy set and pushes it to every currently adapted node.
// An extension whose inferred capability demand exceeds its declaration or
// the admission policy never gets signed or pushed, and neither does one
// whose signing fails: the policy set is unchanged.
func (b *Base) AddExtension(ext Extension) error {
	if err := ext.Validate(); err != nil {
		return err
	}
	signed, rep, err := b.admit(ext)
	if err != nil {
		return err
	}
	b.mu.Lock()
	for _, e := range b.extensions {
		if e.Ext.Name == ext.Name {
			b.mu.Unlock()
			return fmt.Errorf("core: base already has extension %q (use ReplaceExtension)", ext.Name)
		}
	}
	b.extensions = append(b.extensions, signed)
	b.reports[ext.Name] = *rep
	b.mu.Unlock()

	b.pushToAllNodes(signed)
	return nil
}

// pushToAllNodes distributes one signed extension to every adapted node.
func (b *Base) pushToAllNodes(signed SignedExtension) {
	installs := []SignedExtension{signed}
	b.eachAdapted(func(n *adaptedNode) {
		if errs, _ := b.applyToNode(context.Background(), n, installs, nil); errs[0] != nil {
			b.log("push", n.id, signed.Ext.Name, "failed: "+errs[0].Error())
		}
	})
}

// policyFanOut is how many nodes a policy change or a reconcile round works
// on at once. Each node's part is one round trip that mostly waits on the
// network and the receiver, so overlapping them makes a change cost about one
// round trip up to this many nodes, while bounding the goroutines and
// in-flight calls it spawns whatever the fleet's size.
const policyFanOut = 16

// fanOut runs fn(i) once for every i in [0, n) and returns when all calls
// have. policyFanOut workers, the calling goroutine among them, take the next
// index until none is left: at most policyFanOut calls run at once, and they
// start in index order.
func fanOut(n int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
			fn(int(i))
		}
	}
	var wg sync.WaitGroup
	for range min(policyFanOut, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// eachAdapted runs fn once on every adapted node of a node-table snapshot,
// in address order through fanOut, and returns when all calls have.
func (b *Base) eachAdapted(fn func(n *adaptedNode)) {
	nodes := b.nodes.snapshot()
	fanOut(len(nodes), func(i int) {
		if n := nodes[i].n; n != nil {
			fn(n)
		}
	})
}

// ReplaceExtension swaps in a newer version of an existing extension, signed
// once into the policy set, and pushes it to every adapted node (policy
// evolution, §3.2). A version that fails validation, admission or signing,
// or is not newer, leaves the policy set and every node unchanged.
func (b *Base) ReplaceExtension(ext Extension) error {
	if err := ext.Validate(); err != nil {
		return err
	}
	signed, rep, err := b.admit(ext)
	if err != nil {
		return err
	}
	b.mu.Lock()
	found := false
	for i, e := range b.extensions {
		if e.Ext.Name == ext.Name {
			if ext.Version <= e.Ext.Version {
				b.mu.Unlock()
				return fmt.Errorf("core: replacement of %q needs version > %d", ext.Name, e.Ext.Version)
			}
			b.extensions[i] = signed
			b.reports[ext.Name] = *rep
			found = true
			break
		}
	}
	if !found {
		b.mu.Unlock()
		return fmt.Errorf("core: base has no extension %q", ext.Name)
	}
	b.mu.Unlock()

	b.pushToAllNodes(signed)
	return nil
}

// RemoveExtension drops ext from the policy set and revokes it from all
// adapted nodes.
func (b *Base) RemoveExtension(name string) error {
	b.mu.Lock()
	idx := -1
	for i, e := range b.extensions {
		if e.Ext.Name == name {
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

	// Each revoke joins the trace that installed the extension at its node.
	revokes := []string{name}
	b.eachAdapted(func(n *adaptedNode) {
		sc := b.stopTracking(n.addr, name)
		_, errs := b.applyToNode(trace.NewContext(context.Background(), sc), n, nil, revokes)
		detail := ""
		if errs[0] != nil {
			detail = "failed: " + errs[0].Error()
		}
		b.log("revoke", n.id, name, detail)
	})
	return nil
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
	s.setAdapted(nodeAddr, n)
	s.mu.Unlock()
	b.mu.Lock()
	exts := append([]SignedExtension(nil), b.extensions...)
	b.mu.Unlock()

	ctx, sp := b.traceRef().StartSpan(ctx, "base.adapt")
	sp.Tag("node", nodeID)
	sp.Annotatef("%d extensions to push", len(exts))

	b.log("adapt", nodeID, "", fmt.Sprintf("%d extensions", len(exts)))
	// The whole policy set rides one apply.
	installErrs, _ := b.applyToNode(ctx, n, exts, nil)
	var firstErr error
	for i, err := range installErrs {
		if err != nil {
			b.log("push", nodeID, exts[i].Ext.Name, "failed: "+err.Error())
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
			s.dropAdapted(nodeAddr)
		}
		s.mu.Unlock()
		b.refreshNodeGauges()
	}
	return firstErr
}

// Adapted lists the addresses of currently adapted nodes, sorted.
//
//lint:allow shipped (test seam: base and scenario tests check which nodes the base holds adapted)
func (b *Base) Adapted() []string {
	return b.addrs(true)
}

// Degraded lists the addresses of nodes parked for reconciliation, sorted.
func (b *Base) Degraded() []string {
	return b.addrs(false)
}

// addrs lists the adapted, or else the degraded, node addresses, sorted.
func (b *Base) addrs(adapted bool) []string {
	var out []string
	for _, e := range b.nodes.snapshot() {
		if (e.n != nil) == adapted {
			out = append(out, e.addr)
		}
	}
	return out
}

// Activity returns the newest entries of the distribution log (at most
// activityLogCap), oldest first.
func (b *Base) Activity() []BaseActivity {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.activity.entries()
}

// Release stops renewing all leases held at the node and forgets it (journal
// record included — the release is deliberate); the receiver will expire and
// withdraw the extensions on its own (§3.2's revocation path).
func (b *Base) Release(nodeAddr string) {
	s := b.nodes.shard(nodeAddr)
	s.mu.Lock()
	n, ok := s.adapted[nodeAddr]
	s.dropAdapted(nodeAddr)
	_, wasDegraded := s.degraded[nodeAddr]
	s.dropDegraded(nodeAddr)
	s.mu.Unlock()
	b.sched.CancelNode(nodeAddr)
	if ok || wasDegraded {
		if err := b.cfg.Journal.Delete(nodeAddr); err != nil {
			b.metricsRef().journalErrs.Inc()
		}
	}
	if ok {
		b.log("depart", n.id, "", "released")
	} else if wasDegraded {
		b.refreshNodeGauges()
	}
}

// Close stops the reconciler and the renewal scheduler. Unlike Release it
// keeps the journal records: a graceful shutdown is indistinguishable from a
// crash on restart, and Recover resumes the same state either way.
func (b *Base) Close() {
	if b.closed.Swap(true) {
		return
	}
	close(b.stop)
	if b.reconcileDone != nil {
		<-b.reconcileDone
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
	b.refreshNodeGauges()
}

// Recover replays the base journal after a crash or restart: every
// non-degraded node is re-adopted with its renewers resumed on the remaining
// lease window (a deadline that already passed triggers an immediate renewal
// attempt, whose failure flows into the normal departure path), and degraded
// nodes stay parked for reconciliation. Returns the number of nodes whose
// renewals were resumed.
func (b *Base) Recover() (int, error) {
	addrs, recs, err := b.cfg.Journal.All()
	if err != nil {
		return 0, err
	}
	now := b.cfg.Clock.Now()
	restored := 0
	for i, addr := range addrs {
		rec := recs[i]
		if b.closed.Load() {
			break
		}
		s := b.nodes.shard(addr)
		if rec.Degraded {
			s.mu.Lock()
			if _, dup := s.adapted[addr]; !dup {
				s.setDegraded(addr, rec.ID)
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
		s.setAdapted(addr, n)
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
	if n.grants == nil {
		n.grants = make(map[string]*grantInfo)
	}
	g.sc = sc
	n.grants[extName] = &g
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
		g := n.grants[r.Name]
		if g == nil || g.leaseID != r.ID {
			continue
		}
		g.dur = r.Granted
		g.deadline = now.Add(r.Granted)
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
	if err := b.cfg.Journal.Put(n.addr, nodeRecord(n, false)); err != nil {
		b.metricsRef().journalErrs.Inc()
	}
}

// nodeRecord builds n's journal record. Callers hold the node's shard lock.
func nodeRecord(n *adaptedNode, degraded bool) NodeRecord {
	rec := NodeRecord{ID: n.id, Degraded: degraded, Exts: make(map[string]GrantRecord, len(n.grants))}
	for name, g := range n.grants {
		rec.Exts[name] = GrantRecord{
			Version:        g.version,
			LeaseID:        string(g.leaseID),
			DurMillis:      g.dur.Milliseconds(),
			DeadlineMillis: g.deadline.UnixMilli(),
		}
	}
	return rec
}

// nodeDeparted settles the fate of a node whose renewal cycle failed with
// cause, the cycle's final error. A cycle that got no answer at all
// (transport.Transient) leaves a node that may well still be in our space
// behind a bad link: with a reconciler to bring it back, it is parked
// degraded. Every other failure
// departs it: the node answered that it no longer holds the lease, or shed
// or refused the renewal, or no reconciler would ever reach a parked node.
func (b *Base) nodeDeparted(nodeAddr string, cause error) {
	// Whatever the node's fate, its scheduled renewals stop now; degraded
	// nodes re-enter through reconciliation, which re-arms the scheduler.
	b.sched.CancelNode(nodeAddr)
	degrade := b.cfg.ReconcileEvery > 0 && transport.Transient(cause) && !b.closed.Load()

	s := b.nodes.shard(nodeAddr)
	s.mu.Lock()
	n, ok := s.adapted[nodeAddr]
	if ok {
		s.dropAdapted(nodeAddr)
		if degrade {
			s.setDegraded(nodeAddr, n.id)
		}
	}
	s.mu.Unlock()
	b.mu.Lock()
	cb := b.onDepart
	b.mu.Unlock()
	if !ok {
		return
	}
	tr := b.traceRef()
	if degrade {
		_, dsp := tr.StartSpan(context.Background(), "base.degrade")
		dsp.Tag("node", n.id)
		dsp.Annotatef("renewal failed: %v; parked for reconciliation", cause)
		dsp.End(nil)
		tr.Eventf(nil, "base", "node %s degraded (renewal failed: %v); awaiting reconciliation", n.id, cause)
		b.log("degrade", n.id, "", "renewal failed: "+cause.Error()+"; awaiting reconciliation")
		// Keep the journal record but flag it, so a restarted base knows to
		// reconcile rather than resume renewals.
		if b.cfg.Journal != nil {
			s.mu.Lock()
			rec := nodeRecord(n, true)
			s.mu.Unlock()
			if err := b.cfg.Journal.Put(nodeAddr, rec); err != nil {
				b.metricsRef().journalErrs.Inc()
			}
		}
		return
	}
	if err := b.cfg.Journal.Delete(nodeAddr); err != nil {
		b.metricsRef().journalErrs.Inc()
	}
	_, dsp := tr.StartSpan(context.Background(), "base.depart")
	dsp.Tag("node", n.id)
	dsp.Annotatef("renewal failed: %v", cause)
	dsp.End(nil)
	tr.Eventf(nil, "base", "node %s departed (renewal failed: %v)", n.id, cause)
	b.log("depart", n.id, "", "renewal failed: "+cause.Error())
	if cb != nil {
		cb(nodeAddr)
	}
}

// stopTracking forgets the grant for extName at nodeAddr and cancels its
// scheduled renewal. It returns the grant's push span context, so the revoke
// that follows joins the original install trace.
func (b *Base) stopTracking(nodeAddr, extName string) trace.SpanContext {
	s := b.nodes.shard(nodeAddr)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.adapted[nodeAddr]
	if !ok {
		return trace.SpanContext{}
	}
	var sc trace.SpanContext
	if g := n.grants[extName]; g != nil {
		b.sched.Cancel(nodeAddr, g.leaseID)
		sc = g.sc
	}
	delete(n.grants, extName)
	b.journalNode(n)
	return sc
}

func (b *Base) log(ev, node, ext, detail string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.activity.add(BaseActivity{
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
	case "degrade":
		b.m.degrades.Inc()
	case "recover":
		b.m.recovers.Inc()
	}
	b.setNodeGauges()
}

// refreshNodeGauges sets the node gauges to the node table's counts. A node
// leaving the table without an activity entry calls it.
func (b *Base) refreshNodeGauges() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setNodeGauges()
}

// setNodeGauges sets the node gauges to the node table's counts; b.mu must be
// held. The counts are read under b.mu, so whichever refresh follows the last
// change of the table leaves the gauges at its counts.
func (b *Base) setNodeGauges() {
	b.m.adapted.Set(b.nodes.nAdapted.Load())
	b.m.degraded.Set(b.nodes.nDegraded.Load())
}

// ServeOn registers the base's RPC surface on mux: the monitoring record
// sink and the lookup watcher callback. Operator
// reads are documents (see Mounts), served over the ops RPC.
func (b *Base) ServeOn(mux *transport.Mux) {
	transport.Register(mux, MethodBasePost, func(_ context.Context, req PostReq) (EmptyResp, error) {
		if b.cfg.Store == nil {
			return EmptyResp{}, fmt.Errorf("core: base %s has no store", b.cfg.Name)
		}
		_, err := b.cfg.Store.Append(req.Record)
		return EmptyResp{}, err
	})
	transport.Register(mux, MethodBaseOnService, func(ctx context.Context, ev registry.Event) (registry.Empty, error) {
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
		return registry.Empty{}, nil
	})
}

// WatchLookup subscribes the base to adaptation-service arrivals at the
// lookup service behind client, and adapts all already-registered nodes. The
// watch is leased for watchDur and kept alive on a registry.Keep scheduler
// until Close, counted in the base's metrics registry. When the keeper loses
// the watch (the lookup ended it after failed deliveries, or it lapsed), the
// base watches again and re-runs the Find, so the nodes that arrived while it
// was deaf are adapted too. The base must already be served on its own mux
// (ServeOn) so the watcher callback can reach it.
func (b *Base) WatchLookup(client *registry.Client, watchDur time.Duration) (string, error) {
	watchID, err := client.Watch(registry.Template{Name: AdaptationService}, watchDur, b.cfg.Addr, MethodBaseOnService)
	if err != nil {
		return "", fmt.Errorf("core: watch lookup: %w", err)
	}
	b.mu.Lock()
	reg := b.reg
	b.mu.Unlock()
	keeper := registry.Keep(b.cfg.Clock, reg, watchID, watchDur, client.RenewWatch, func(err error) {
		b.watchLost.Store(&err)
		go b.rewatch(client, watchDur)
	})
	if old := b.watch.Swap(keeper); old != nil {
		old.Stop()
	}
	if b.closed.Load() {
		// Close may have swapped the watch out before this keeper went in.
		if w := b.watch.Swap(nil); w != nil {
			w.Stop()
		}
		return watchID, fmt.Errorf("core: base %s is closed", b.cfg.Name)
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

// LookupWatchErr reports a lost lookup watch: from the moment its keeper
// loses it until a re-watch re-establishes it, the base hears of no arriving
// node. It is nil while the watch stands or when the base never watched.
// cmd/basestation serves it as the /healthz "lookup" check.
func (b *Base) LookupWatchErr() error {
	if err := b.watchLost.Load(); err != nil {
		return fmt.Errorf("lookup watch lost: %w", *err)
	}
	return nil
}

// rewatch re-establishes a lookup watch its keeper lost. While the lookup
// stays out of reach it tries again every half watchDur, until Close.
func (b *Base) rewatch(client *registry.Client, watchDur time.Duration) {
	for {
		_, err := b.WatchLookup(client, watchDur)
		if err == nil {
			b.watchLost.Store(nil)
			b.log("rewatch", "", "", "lookup watch re-established")
			return
		}
		select {
		case <-b.stop:
			return
		case <-b.cfg.Clock.After(watchDur / 2):
		}
	}
}
