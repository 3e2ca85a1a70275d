package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/lease"
	"repro/internal/lvm"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/weave"
)

// AdaptationService is the registry service type receivers advertise under.
const AdaptationService = "midas.adaptation"

// ErrNotInstalled reports an operation on an extension that is not installed.
// The wire revoke handler treats it as already-done so a base retrying a
// revocation whose response was lost stays idempotent.
var ErrNotInstalled = errors.New("not installed")

func init() {
	// Let errors.Is(err, ErrNotInstalled) hold for remote errors too, on
	// every fabric.
	transport.RegisterRemoteSentinel(ErrNotInstalled)
}

// ReceiverConfig assembles the dependencies of an adaptation service.
type ReceiverConfig struct {
	NodeName string
	Addr     string // transport address this receiver serves on
	Weaver   *weave.Weaver
	Trust    *sign.TrustStore
	Policy   sandbox.Policy
	Clock    clock.Clock
	Host     lvm.Host // raw node host; gated per extension by the sandbox
	Builtins *Builtins
	// Extras carries node-local native facilities exposed to builtin advice
	// factories through Env.Extras.
	Extras map[string]any
	// Journal, when set, checkpoints every installed extension and its lease
	// deadline so Recover can rebuild the adaptation state after a crash.
	Journal *ReceiverJournal
}

// Activity is one entry of the receiver's adaptation log.
type Activity struct {
	AtMillis int64
	Event    string // "install", "replace", "refresh", "withdraw", "expire", "reject", "recover"
	Ext      string
	Base     string
	Detail   string
}

// ExtensionInfo describes one installed extension.
type ExtensionInfo struct {
	ID       string
	Name     string
	Version  int
	BaseAddr string
	System   bool // implicit extension auto-installed via Requires
}

type installedExt struct {
	ext      Extension
	baseAddr string
	leaseID  lease.ID
	system   bool
	refs     int // dependents, for system extensions
	bodies   []aop.Body
	// removing is set while remove unweaves the extension. The entry stays
	// in installed until the weaver has let go of it, and leaves together
	// with its activity record, so a Has that turns false already finds the
	// withdraw or expire event in Activity.
	removing bool
	// sc is the span context of the install, so an autonomous expiry years
	// of renewals later still joins the trace that installed the extension.
	sc trace.SpanContext
}

// Receiver is the adaptation service carried by every mobile node: it
// accepts signed extensions from bases, weaves them, and withdraws them when
// their leases lapse (the node left the base's space) or the base revokes
// them.
type Receiver struct {
	cfg     ReceiverConfig
	grantor *lease.Grantor

	mu        sync.Mutex
	installed map[string]*installedExt // by extension Name
	activity  []Activity
	reg       *metrics.Registry
	m         receiverMetrics
	tracer    *trace.Tracer

	// Piggybacked observability state (fleet.go): what was already reported,
	// so each renewBatch response carries only the delta. Own lock — the
	// report reads the registry and tracer, never receiver state.
	obsMu         sync.Mutex
	obsSent       map[string]obsCum
	obsDropped    uint64
	obsSampledOut uint64
	obsTailKept   uint64
}

// receiverMetrics counts adaptation lifecycle events, mirroring the activity
// log; all fields are nil-safe no-ops until Instrument.
type receiverMetrics struct {
	installs    *metrics.Counter
	replaces    *metrics.Counter
	refreshes   *metrics.Counter
	withdrawals *metrics.Counter
	expiries    *metrics.Counter
	rejects     *metrics.Counter
	recovers    *metrics.Counter
	journalErrs *metrics.Counter
	installed   *metrics.Gauge
}

// Instrument records extension installs, replacements, withdrawals, lease
// expiries and signature/policy rejections in reg, plus the installed-set
// gauge. The receiver's grantor joins the same registry, and the node's
// renewal responses report its RPC deltas from it. A nil reg is a no-op.
func (r *Receiver) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	r.grantor.Instrument(reg)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reg = reg
	r.m = receiverMetrics{
		installs:    reg.Counter("ext.installs"),
		replaces:    reg.Counter("ext.replaces"),
		refreshes:   reg.Counter("ext.refreshes"),
		withdrawals: reg.Counter("ext.withdrawals"),
		expiries:    reg.Counter("ext.expiries"),
		rejects:     reg.Counter("ext.rejects"),
		recovers:    reg.Counter("ext.recovers"),
		journalErrs: reg.Counter("ext.journal_errors"),
		installed:   reg.Gauge("ext.installed"),
	}
	r.m.installed.Set(int64(len(r.installed)))
}

// NewReceiver builds a receiver. Weaver, Trust and Policy are required;
// Clock defaults to the real clock, Builtins to an empty registry.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.Weaver == nil || cfg.Trust == nil || cfg.Policy == nil {
		return nil, fmt.Errorf("core: receiver needs Weaver, Trust and Policy")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Builtins == nil {
		cfg.Builtins = NewBuiltins()
	}
	return &Receiver{
		cfg:       cfg,
		grantor:   lease.NewGrantor(cfg.Clock),
		installed: make(map[string]*installedExt),
	}, nil
}

// Grantor exposes the lease grantor for sweeping (tests) or Start/Stop.
func (r *Receiver) Grantor() *lease.Grantor { return r.grantor }

// Trace records the receiver's lifecycle (install, refresh, withdraw,
// expire) as spans in tr and threads the tracer into the weaver and grantor,
// so a pushed extension's whole journey on this node reads as one trace.
// Call before serving; a nil tr is a no-op.
func (r *Receiver) Trace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	r.mu.Lock()
	r.tracer = tr
	r.mu.Unlock()
	r.cfg.Weaver.Trace(tr)
	r.grantor.Trace(tr)
}

func (r *Receiver) traceRef() *trace.Tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracer
}

// Install verifies, sandboxes and weaves a signed extension from baseAddr,
// holding it under a lease of duration dur. Implicit extensions listed in
// Requires are auto-installed from the builtin bundle registry first.
func (r *Receiver) Install(signed SignedExtension, baseAddr string, dur time.Duration) (lease.ID, error) {
	return r.InstallCtx(context.Background(), signed, baseAddr, dur)
}

// InstallCtx is Install joining the trace carried by ctx (normally the
// base's push, delivered with the RPC); the outcome — fresh install, version
// replace or idempotent refresh — lands as a tag on the "ext.install" span.
func (r *Receiver) InstallCtx(ctx context.Context, signed SignedExtension, baseAddr string, dur time.Duration) (lease.ID, error) {
	ext := signed.Ext
	ctx, sp := r.traceRef().StartSpan(ctx, "ext.install")
	sp.Tag("ext", ext.Name)
	sp.Tag("node", r.cfg.NodeName)
	if err := signed.Verify(r.cfg.Trust); err != nil {
		r.log("reject", ext.Name, baseAddr, err.Error())
		sp.Tag("outcome", "reject")
		sp.End(err)
		return "", err
	}
	if err := ext.Validate(); err != nil {
		r.log("reject", ext.Name, baseAddr, err.Error())
		sp.Tag("outcome", "reject")
		sp.End(err)
		return "", err
	}
	// Resolve implicit extensions before the dependent one (§3.3: adding an
	// extension that needs session information automatically adds the
	// session-management extension).
	for _, req := range ext.Requires {
		if err := r.installImplicit(ctx, req, baseAddr); err != nil {
			r.log("reject", ext.Name, baseAddr, err.Error())
			sp.Tag("outcome", "reject")
			sp.End(err)
			return "", err
		}
	}
	id, outcome, err := r.install(ctx, ext, signed.Sig.SignerName, baseAddr, dur, false, nil)
	if err != nil {
		r.log("reject", ext.Name, baseAddr, err.Error())
		sp.Tag("outcome", "reject")
		sp.End(err)
		return "", err
	}
	r.journalExt(signed, baseAddr, id, dur)
	sp.Tag("outcome", outcome)
	sp.End(nil)
	return id, nil
}

// journalExt checkpoints an installed extension and its lease deadline so a
// crashed node recovers into the same adaptation state.
func (r *Receiver) journalExt(signed SignedExtension, baseAddr string, id lease.ID, dur time.Duration) {
	if r.cfg.Journal == nil {
		return
	}
	deadline, _ := r.grantor.Deadline(id)
	err := r.cfg.Journal.PutExt(signed.Ext.Name, InstallRecord{
		Signed:         signed,
		BaseAddr:       baseAddr,
		LeaseID:        string(id),
		DurMillis:      dur.Milliseconds(),
		DeadlineMillis: deadline.UnixMilli(),
	})
	if err != nil {
		r.mu.Lock()
		je := r.m.journalErrs
		r.mu.Unlock()
		je.Inc()
		r.traceRef().Eventf(nil, "recover", "journal ext %s: %v", signed.Ext.Name, err)
	}
}

func (r *Receiver) installImplicit(ctx context.Context, name, baseAddr string) error {
	r.mu.Lock()
	if ie, ok := r.installed[name]; ok && !ie.removing {
		ie.refs++
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()
	bundle, ok := r.cfg.Builtins.Bundle(name)
	if !ok {
		return fmt.Errorf("core: required implicit extension %q not available", name)
	}
	// Implicit extensions are local and trusted: no lease, no signature.
	if _, _, err := r.install(ctx, bundle, "local", baseAddr, 0, true, nil); err != nil {
		return err
	}
	r.mu.Lock()
	if ie, ok := r.installed[name]; ok {
		ie.refs = 1
	}
	r.mu.Unlock()
	return nil
}

// install weaves one extension. When restore is non-nil the install replays a
// journal record: the original lease is re-registered under its absolute
// deadline instead of a fresh grant, so a lease that lapsed while the node was
// down expires on the first sweep rather than being silently re-opened.
func (r *Receiver) install(ctx context.Context, ext Extension, signer, baseAddr string, dur time.Duration, system bool, restore *InstallRecord) (lease.ID, string, error) {
	// Idempotent re-push: a base retrying an install whose response was lost
	// on the wire re-sends the same version. Refresh the existing lease and
	// return the original handle instead of failing — and do it before any
	// advice bodies are built so a refresh allocates nothing.
	r.mu.Lock()
	var refreshID lease.ID
	if old, ok := r.installed[ext.Name]; ok && !system && !old.system && !old.removing &&
		ext.Version == old.ext.Version && old.baseAddr == baseAddr && old.leaseID != "" {
		refreshID = old.leaseID
	}
	r.mu.Unlock()
	if refreshID != "" {
		if _, err := r.grantor.Renew(ctx, refreshID, dur); err == nil {
			r.log("refresh", ext.Name, baseAddr, fmt.Sprintf("version %d", ext.Version))
			return refreshID, "refresh", nil
		}
		// The lease lapsed under us; fall through to the ordinary path.
	}

	perms, err := r.cfg.Policy.Grant(signer, ext.Capabilities())
	if err != nil {
		return "", "", err
	}
	// Pre-weave defense in depth: re-infer the capability demand of the
	// extension's advice on this side of the wire. The base already admitted
	// it, but a compromised base could sign and push code whose inferred
	// capabilities exceed both its declaration and this node's grant — the
	// signature would still verify, so the receiver must not take the
	// declared set at face value.
	rep, progs, err := analyzeExtension(ext)
	if err != nil {
		return "", "", fmt.Errorf("core: extension %q rejected by pre-weave analysis: %w", ext.Name, err)
	}
	if missing := perms.Diff(rep.Demand()); len(missing) > 0 {
		return "", "", fmt.Errorf("core: extension %q advice can exercise capabilities %v beyond grant %s",
			ext.Name, missing, perms)
	}
	// Same defense for information flows: the base refused undeclared flows
	// at admission, but the receiver re-derives them so a rogue base cannot
	// push laundering bytecode under an innocent declaration.
	if err := CheckFlows(ext, rep, nil); err != nil {
		return "", "", fmt.Errorf("core: extension %q rejected by pre-weave flow check: %w", ext.Name, err)
	}
	gated := sandbox.NewHost(r.cfg.Host, perms)
	// Every reachable host call has now been checked against the grant, so
	// the per-dispatch capability gate is provably dead for exactly those
	// functions — let the sandbox dispatch them straight through.
	gated.Prove(rep.HostCalls...)
	env := &Env{NodeName: r.cfg.NodeName, BaseAddr: baseAddr, Host: gated, Extras: r.cfg.Extras}

	aspect := &aop.Aspect{Name: ext.Name, Priority: ext.Priority}
	var bodies []aop.Body
	for i := range ext.Advices {
		spec := &ext.Advices[i]
		var body aop.Body
		if spec.Builtin != "" {
			body, err = r.cfg.Builtins.New(spec.Builtin, env, spec.Config)
		} else {
			body = progs[i].compile(gated)
		}
		if err != nil {
			return "", "", fmt.Errorf("core: extension %q advice %q: %w", ext.Name, spec.Name, err)
		}
		when, kind, err := adviceKind(spec.Kind)
		if err != nil {
			return "", "", err
		}
		pat, err := aop.ParsePattern(spec.Pattern)
		if err != nil {
			return "", "", err
		}
		bodies = append(bodies, body)
		aspect.Advices = append(aspect.Advices, aop.Advice{
			Name: spec.Name,
			When: when,
			Cut:  aop.Crosscut{Kind: kind, Pat: pat},
			Body: body,
		})
	}
	aspect.OnShutdown = func() {
		for _, b := range bodies {
			if s, ok := b.(ShutdownBody); ok {
				s.Shutdown()
			}
		}
	}

	r.mu.Lock()
	old, exists := r.installed[ext.Name]
	removing := exists && old.removing
	r.mu.Unlock()

	event := "install"
	if exists {
		if removing {
			return "", "", fmt.Errorf("core: extension %q is being withdrawn; retry the install", ext.Name)
		}
		if ext.Version <= old.ext.Version {
			return "", "", fmt.Errorf("core: extension %q version %d already installed (have %d)",
				ext.Name, ext.Version, old.ext.Version)
		}
		if err := r.cfg.Weaver.Replace(ctx, ext.Name, aspect); err != nil {
			return "", "", err
		}
		_ = r.grantor.Cancel(old.leaseID)
		event = "replace"
	} else {
		if err := r.cfg.Weaver.InsertCtx(ctx, aspect); err != nil {
			return "", "", err
		}
	}

	ie := &installedExt{ext: ext, baseAddr: baseAddr, system: system, bodies: bodies}
	ie.sc, _ = trace.FromContext(ctx)
	if exists {
		ie.refs = old.refs
	}
	if !system {
		name := ext.Name
		if restore != nil {
			l := r.grantor.Restore(lease.ID(restore.LeaseID), time.UnixMilli(restore.DeadlineMillis),
				time.Duration(restore.DurMillis)*time.Millisecond, func(lease.ID) { r.expire(name) })
			ie.leaseID = l.ID
		} else {
			l := r.grantor.Grant(ctx, dur, func(lease.ID) { r.expire(name) })
			ie.leaseID = l.ID
		}
	}
	r.mu.Lock()
	r.installed[ext.Name] = ie
	r.mu.Unlock()
	r.log(event, ext.Name, baseAddr, fmt.Sprintf("version %d, perms %s", ext.Version, gated.Perms()))
	if ie.leaseID != "" {
		return ie.leaseID, event, nil
	}
	return "", event, nil
}

// Renew extends an installed extension's lease; bases call this periodically
// to keep their adaptations alive.
func (r *Receiver) Renew(id lease.ID, dur time.Duration) error {
	_, err := r.renewLease(context.Background(), id, dur)
	return err
}

// renewLease extends a lease and checkpoints the new deadline.
func (r *Receiver) renewLease(ctx context.Context, id lease.ID, dur time.Duration) (lease.Lease, error) {
	l, err := r.grantor.Renew(ctx, id, dur)
	if err != nil {
		return l, err
	}
	if r.cfg.Journal != nil {
		if err := r.cfg.Journal.UpdateDeadline(r.extNameByLease(id), l.Expiry.UnixMilli()); err != nil {
			r.mu.Lock()
			je := r.m.journalErrs
			r.mu.Unlock()
			je.Inc()
		}
	}
	return l, nil
}

// extNameByLease maps a lease handle back to its extension name ("" when the
// lease belongs to no installed extension).
func (r *Receiver) extNameByLease(id lease.ID) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, ie := range r.installed {
		if ie.leaseID == id {
			return name
		}
	}
	return ""
}

// Recover replays the receiver's journal after a crash: every recorded
// extension is re-verified, re-woven and its lease re-registered under the
// original handle and absolute deadline. Leases that lapsed while the node
// was down are expired immediately afterwards, so the surviving installed
// set matches what an uninterrupted node would hold. Call after trust keys
// are loaded and before serving. Returns the number of extensions restored.
func (r *Receiver) Recover() (int, error) {
	recs, err := r.cfg.Journal.Exts()
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, rec := range recs {
		// A record that no longer survives re-verification (rotated base
		// key, missing builtin) is rejected and dropped, never fatal: the
		// node must come up empty-handed and let the base's reconciliation
		// re-push current extensions rather than refuse to start.
		if err := r.recoverOne(rec); err != nil {
			r.log("reject", rec.Signed.Ext.Name, rec.BaseAddr, "recover: "+err.Error())
			continue
		}
		restored++
	}
	// Sweep now: anything whose lease lapsed during the outage is withdrawn
	// before the node starts serving, not at the first periodic sweep.
	r.grantor.ExpireNow()
	return restored, nil
}

func (r *Receiver) recoverOne(rec InstallRecord) error {
	signed := rec.Signed
	ext := signed.Ext
	ctx, sp := r.traceRef().StartSpan(context.Background(), "ext.recover")
	sp.Tag("ext", ext.Name)
	sp.Tag("node", r.cfg.NodeName)
	err := func() error {
		if err := signed.Verify(r.cfg.Trust); err != nil {
			return err
		}
		if err := ext.Validate(); err != nil {
			return err
		}
		for _, req := range ext.Requires {
			if err := r.installImplicit(ctx, req, rec.BaseAddr); err != nil {
				return err
			}
		}
		dur := time.Duration(rec.DurMillis) * time.Millisecond
		_, _, err := r.install(ctx, ext, signed.Sig.SignerName, rec.BaseAddr, dur, false, &rec)
		return err
	}()
	sp.End(err)
	if err != nil {
		// The record did not survive re-verification (key rotated, builtin
		// gone): drop it so the next restart is not haunted by it.
		_ = r.cfg.Journal.DeleteExt(ext.Name)
		return err
	}
	r.log("recover", ext.Name, rec.BaseAddr, fmt.Sprintf("version %d", ext.Version))
	return nil
}

// Inventory reports the non-system extensions this node holds, with their
// originating base, lease handle and absolute deadline — the receiver's side
// of anti-entropy reconciliation.
func (r *Receiver) Inventory() []InventoryItem {
	r.mu.Lock()
	items := make([]InventoryItem, 0, len(r.installed))
	for _, ie := range r.installed {
		if ie.system || ie.removing {
			continue
		}
		items = append(items, InventoryItem{
			Name:     ie.ext.Name,
			Version:  ie.ext.Version,
			BaseAddr: ie.baseAddr,
			LeaseID:  string(ie.leaseID),
		})
	}
	r.mu.Unlock()
	for i := range items {
		if d, ok := r.grantor.Deadline(lease.ID(items[i].LeaseID)); ok {
			items[i].DeadlineMillis = d.UnixMilli()
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Name < items[j].Name })
	return items
}

// Withdraw removes the named extension immediately (explicit revocation by
// the base, or local policy), running its shutdown procedure, inside the
// trace carried by ctx (normally the base's revoke RPC).
func (r *Receiver) Withdraw(ctx context.Context, name string) error {
	ctx, sp := r.traceRef().StartSpan(ctx, "ext.withdraw")
	sp.Tag("ext", name)
	sp.Tag("node", r.cfg.NodeName)
	err := r.remove(ctx, name, "withdraw")
	sp.End(err)
	return err
}

func (r *Receiver) expire(name string) {
	// Lease lapsed without renewal: the node has left the base's space (or
	// the base died); autonomously discard the adaptation (§3.2) — inside
	// the trace that installed the extension.
	r.mu.Lock()
	var sc trace.SpanContext
	if ie, ok := r.installed[name]; ok {
		sc = ie.sc
	}
	tr := r.tracer
	r.mu.Unlock()
	ctx, sp := tr.StartSpan(trace.NewContext(context.Background(), sc), "ext.expire")
	sp.Tag("ext", name)
	sp.Tag("node", r.cfg.NodeName)
	sp.End(r.remove(ctx, name, "expire"))
}

// remove unweaves the named extension and releases its implicit
// dependencies. The extension stays installed, marked removing, until the
// weaver has withdrawn it; it then leaves installed in the same critical
// section that records event in the activity log. A second remove of the same
// extension meanwhile reports ErrNotInstalled.
func (r *Receiver) remove(ctx context.Context, name, event string) error {
	r.mu.Lock()
	ie, ok := r.installed[name]
	if !ok || ie.removing {
		r.mu.Unlock()
		return fmt.Errorf("core: extension %q %w", name, ErrNotInstalled)
	}
	ie.removing = true
	requires := ie.ext.Requires
	baseAddr := ie.baseAddr
	leaseID := ie.leaseID
	system := ie.system
	r.mu.Unlock()

	// System extensions are never journalled, so skip the tombstone write.
	if !system {
		_ = r.cfg.Journal.DeleteExt(name)
	}

	if leaseID != "" {
		_ = r.grantor.Cancel(leaseID)
	}
	werr := r.cfg.Weaver.Withdraw(ctx, name)
	r.mu.Lock()
	if r.installed[name] == ie {
		delete(r.installed, name)
	}
	if werr == nil {
		r.logLocked(event, name, baseAddr, "")
	}
	r.mu.Unlock()
	if werr != nil {
		return werr
	}

	// Release implicit dependencies.
	for _, req := range requires {
		r.mu.Lock()
		dep, ok := r.installed[req]
		var drop bool
		if ok && dep.system && !dep.removing {
			dep.refs--
			drop = dep.refs <= 0
		}
		r.mu.Unlock()
		if drop {
			_ = r.remove(ctx, req, "withdraw")
		}
	}
	return nil
}

// Installed lists the current extensions sorted by name.
func (r *Receiver) Installed() []ExtensionInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ExtensionInfo, 0, len(r.installed))
	for _, ie := range r.installed {
		out = append(out, ExtensionInfo{
			ID:       ie.ext.ID,
			Name:     ie.ext.Name,
			Version:  ie.ext.Version,
			BaseAddr: ie.baseAddr,
			System:   ie.system,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Has reports whether the named extension is installed.
func (r *Receiver) Has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.installed[name]
	return ok
}

// Activity returns the adaptation log.
func (r *Receiver) Activity() []Activity {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Activity, len(r.activity))
	copy(out, r.activity)
	return out
}

func (r *Receiver) log(event, ext, base, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.logLocked(event, ext, base, detail)
}

// logLocked is log for a caller that holds r.mu.
func (r *Receiver) logLocked(event, ext, base, detail string) {
	r.activity = append(r.activity, Activity{
		AtMillis: r.cfg.Clock.Now().UnixMilli(),
		Event:    event,
		Ext:      ext,
		Base:     base,
		Detail:   detail,
	})
	switch event {
	case "install":
		r.m.installs.Inc()
	case "replace":
		r.m.replaces.Inc()
	case "refresh":
		r.m.refreshes.Inc()
	case "withdraw":
		r.m.withdrawals.Inc()
	case "expire":
		r.m.expiries.Inc()
	case "reject":
		r.m.rejects.Inc()
	case "recover":
		r.m.recovers.Inc()
	}
	r.m.installed.Set(int64(len(r.installed)))
}

// ShutdownBody is implemented by advice bodies that need a shutdown
// procedure before their extension is discarded (e.g. flushing buffered
// monitoring records).
type ShutdownBody interface {
	Shutdown()
}

// Advertise registers the receiver as a midas.adaptation service at the
// lookup service behind client and keeps the registration alive on a
// registry.Keep scheduler. The returned stop function stops renewing and
// deregisters.
func (r *Receiver) Advertise(client *registry.Client, dur time.Duration, attrs map[string]string) (func(), error) {
	item := registry.ServiceItem{
		ID:    r.cfg.NodeName,
		Name:  AdaptationService,
		Addr:  r.cfg.Addr,
		Attrs: attrs,
	}
	// The advertisement roots the trace a whole adaptation hangs off: the
	// lookup stamps its span context on the watcher event, the base adapts
	// inside it, and the pushes/weaves/renewals that follow join it.
	ctx, sp := r.traceRef().StartSpan(context.Background(), "discovery.advertise")
	sp.Tag("node", r.cfg.NodeName)
	leaseID, err := client.Register(ctx, item, dur)
	sp.End(err)
	if err != nil {
		return nil, fmt.Errorf("core: advertise: %w", err)
	}
	r.mu.Lock()
	reg := r.reg
	r.mu.Unlock()
	keeper := registry.Keep(r.cfg.Clock, reg, string(leaseID), dur, func(id string, d time.Duration) error {
		return client.Renew(lease.ID(id), d)
	})
	return func() {
		keeper.Stop()
		_ = client.Deregister(item.ID)
	}, nil
}

// RPC method names served by a receiver.
const (
	MethodInstall = "midas.install"
	MethodRenewE  = "midas.renew"
	MethodRevoke  = "midas.revoke"
	MethodList    = "midas.list"
)

// Wire types for the receiver RPC surface.
type (
	// InstallReq pushes a signed extension.
	InstallReq struct {
		Signed    SignedExtension
		BaseAddr  string
		DurMillis int64
	}
	// InstallResp returns the lease handle.
	InstallResp struct {
		LeaseID string
	}
	// RenewExtReq keeps an extension alive.
	RenewExtReq struct {
		LeaseID   string
		DurMillis int64
	}
	// RenewExtResp reports the actually granted duration, which a receiver
	// may shorten; the base's renewer adopts it so renewals keep fitting
	// inside the lease.
	RenewExtResp struct {
		DurMillis int64
	}
	// RevokeReq withdraws an extension by name.
	RevokeReq struct {
		Name string
	}
	// ListResp describes installed extensions.
	ListResp struct {
		Extensions []ExtensionInfo
	}
	// EmptyResp is the empty response.
	EmptyResp struct{}
)

// ServeOn registers the receiver's RPC surface on mux.
func (r *Receiver) ServeOn(mux *transport.Mux) {
	r.serveBatch(mux)
	transport.Register(mux, MethodInstall, func(ctx context.Context, req InstallReq) (InstallResp, error) {
		id, err := r.InstallCtx(ctx, req.Signed, req.BaseAddr, time.Duration(req.DurMillis)*time.Millisecond)
		if err != nil {
			return InstallResp{}, err
		}
		return InstallResp{LeaseID: string(id)}, nil
	})
	transport.Register(mux, MethodRenewE, func(ctx context.Context, req RenewExtReq) (RenewExtResp, error) {
		l, err := r.renewLease(ctx, lease.ID(req.LeaseID), time.Duration(req.DurMillis)*time.Millisecond)
		if err != nil {
			return RenewExtResp{}, err
		}
		return RenewExtResp{DurMillis: l.Duration.Milliseconds()}, nil
	})
	transport.Register(mux, MethodInventory, func(_ context.Context, _ EmptyResp) (InventoryResp, error) {
		return InventoryResp{Node: r.cfg.NodeName, Items: r.Inventory()}, nil
	})
	transport.Register(mux, MethodRevoke, func(ctx context.Context, req RevokeReq) (EmptyResp, error) {
		// A revoke of something already gone is a success: the base may be
		// retrying a revocation whose response was lost.
		if err := r.Withdraw(ctx, req.Name); err != nil && !errors.Is(err, ErrNotInstalled) {
			return EmptyResp{}, err
		}
		return EmptyResp{}, nil
	})
	transport.Register(mux, MethodList, func(_ context.Context, _ EmptyResp) (ListResp, error) {
		return ListResp{Extensions: r.Installed()}, nil
	})
}
