// Scenario tests for distributed lifecycle tracing: a node's whole journey —
// discovery, adaptation push, weaving, lease renewals and revocation — must
// read as ONE trace, stitched across the fabric by the span-context
// envelope. Runs on the deterministic network simulator; set SIMNET_SEED to
// replay a run exactly.
package repro

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sign"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transport"
)

// tracedWorld is a simWorld whose base and node share one tracer (they run in
// one test process; parenting across them still exercises the wire envelope).
func newTracedBase(w *simWorld, name string, tr *trace.Tracer, caller transport.Caller) *scenarioBase {
	w.t.Helper()
	signer, err := sign.NewSigner(name)
	if err != nil {
		w.t.Fatal(err)
	}
	b := &scenarioBase{name: name, reg: metrics.New(), signer: signer}
	base, err := core.NewBase(core.BaseConfig{
		Name:        name,
		Addr:        name,
		Caller:      caller,
		Signer:      signer,
		Clock:       w.clk,
		CallTimeout: time.Hour, // the simulated clock governs; simnet fails lost calls at once
	})
	if err != nil {
		w.t.Fatal(err)
	}
	b.base = base
	w.t.Cleanup(base.Close)
	base.Instrument(b.reg)
	base.Trace(tr)
	mux := transport.NewMux()
	base.ServeOn(mux)
	stop, err := w.net.Serve(name, mux)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(stop)
	return b
}

// spansByName indexes a snapshot slice by span name.
func spansByName(spans []trace.SpanSnapshot) map[string][]trace.SpanSnapshot {
	out := make(map[string][]trace.SpanSnapshot)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// TestScenarioTracedLifecycle drives the full MIDAS lifecycle — advertise at
// the lookup, watcher-event adaptation, a push, weaving, a lease renewal,
// then revocation — and asserts every span of it shares the trace rooted at
// the advertisement.
func TestScenarioTracedLifecycle(t *testing.T) {
	w := newSimWorld(t)
	tr := trace.New(w.seed)

	// Lookup service.
	lookup := registry.NewLookup(w.clk)
	lookup.Grantor().Start(time.Second)
	t.Cleanup(lookup.Grantor().Stop)
	lookupMux := transport.NewMux()
	lookupSrv := registry.NewServer(lookup, lookupMux, w.net.Node("lookup-1"), w.clk)
	t.Cleanup(lookupSrv.Close)
	stop, err := w.net.Serve("lookup-1", lookupMux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)

	b := newTracedBase(w, "base-1", tr, w.net.Node("base-1"))
	if err := b.base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
		t.Fatal(err)
	}

	// Node, traced.
	n := w.newNode("robot1", b.signer)
	n.receiver.Trace(tr)
	transport.ServeOps(n.mux, metrics.NewHandler(n.reg, nil,
		metrics.Mount{Pattern: "/trace", Handler: trace.Handler(tr)},
		metrics.Mount{Pattern: "/events", Handler: trace.EventsHandler(tr)}))

	// Watch first, then advertise: the advertisement roots the trace.
	if _, err := b.base.WatchLookup(
		&registry.Client{Caller: w.net.Node("base-1"), Addr: "lookup-1", Timeout: time.Hour},
		time.Hour); err != nil {
		t.Fatal(err)
	}
	stopAdv, err := n.receiver.Advertise(
		&registry.Client{Caller: w.net.Node("robot1"), Addr: "lookup-1", Timeout: time.Hour},
		time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAdv)

	waitFor(t, "adaptation via lookup", func() bool { return n.receiver.Has("policy") })
	waitFor(t, "base adapted the node", func() bool { return len(b.base.Adapted()) == 1 })

	// The node counts as adapted before the push has finished and handed the
	// lease to the renewal scheduler. Advancing the
	// clock any earlier arms the renewal past the advance, and it never runs.
	waitFor(t, "the base scheduled the lease's renewal", func() bool { return b.base.ScheduledRenewals() == 1 })

	// At least one renewal cycle. The node counts it inside its handler,
	// before the base's lease.renew span ends, so wait for the span too.
	renewalsBefore := n.counter("lease.renewals")
	w.advance(6*time.Second, 500*time.Millisecond)
	waitFor(t, "a lease renewal", func() bool {
		return n.counter("lease.renewals") > renewalsBefore && len(tr.Spans(trace.Filter{Name: "lease.renew"})) > 0
	})

	// Revocation.
	if err := b.base.RemoveExtension("policy"); err != nil {
		t.Fatal(err)
	}
	if n.receiver.Has("policy") {
		t.Fatal("extension still installed after revoke")
	}

	// --- The whole lifecycle must be ONE trace. ---
	roots := tr.Spans(trace.Filter{Name: "discovery.advertise"})
	if len(roots) != 1 {
		t.Fatalf("got %d discovery.advertise spans, want 1", len(roots))
	}
	root := roots[0]
	if root.ParentID != "" {
		t.Fatalf("advertise span has a parent: %+v", root)
	}
	lifecycle := tr.Spans(trace.Filter{TraceID: root.TraceID})
	byName := spansByName(lifecycle)

	wantOne := []string{"base.adapt", "ext.withdraw", "weave.insert", "weave.withdraw"}
	for _, name := range wantOne {
		if len(byName[name]) != 1 {
			t.Errorf("trace %s: got %d %q spans, want 1 (have: %v)", root.TraceID, len(byName[name]), name, names(lifecycle))
		}
	}
	// Both changes to the node are one midas.applyBatch each: the adapt's
	// push and the revoke.
	var push, revoke trace.SpanSnapshot
	for _, s := range byName["base.apply"] {
		switch {
		case s.Tags["installs"] == "1" && s.Tags["revokes"] == "":
			push = s
		case s.Tags["installs"] == "" && s.Tags["revokes"] == "1":
			revoke = s
		}
	}
	if len(byName["base.apply"]) != 2 || push.SpanID == "" || revoke.SpanID == "" {
		t.Fatalf("trace %s: base.apply spans %+v, want one push and one revoke", root.TraceID, byName["base.apply"])
	}

	if installs := byName["ext.install"]; len(installs) != 1 || installs[0].Tags["outcome"] != "install" {
		t.Errorf("ext.install spans %+v, want one install", installs)
	}
	if len(byName["lease.renew"]) < 1 {
		t.Errorf("no lease.renew span joined the lifecycle trace")
	}

	// Parenting: the adaptation hangs off the advertisement.
	adapt := byName["base.adapt"][0]
	if adapt.TraceID != root.TraceID {
		t.Errorf("base.adapt in trace %s, want %s", adapt.TraceID, root.TraceID)
	}
	if push.ParentID != adapt.SpanID {
		t.Errorf("push base.apply parent = %s, want the adapt span %s", push.ParentID, adapt.SpanID)
	}
	// The revoke joins the trace inside the push that installed the
	// extension.
	if revoke.ParentID != push.SpanID {
		t.Errorf("revoke base.apply parent = %s, want the push span %s", revoke.ParentID, push.SpanID)
	}

	// Open spans must not leak: everything in the lifecycle trace ended.
	for _, s := range lifecycle {
		if s.EndUnixNano == 0 {
			t.Errorf("span %s (%s) never ended", s.Name, s.SpanID)
		}
	}

	// --- The trace is retrievable over the ops RPC (midasctl trace path). ---
	var spans []trace.SpanSnapshot
	opsDoc(t, w.net.Node("ctl"), "robot1", "/trace?q=policy", &spans)
	got := spansByName(spans)
	if len(got["ext.install"]) != 1 || len(got["base.apply"]) != 2 {
		t.Errorf("/trace?q=policy returned %v, want the full lifecycle", names(spans))
	}
	for _, s := range spans {
		// Admission runs when the extension is added at the base, before any
		// node exists — its span starts a trace of its own.
		if s.Name == "base.admit" {
			continue
		}
		if s.TraceID != root.TraceID {
			t.Errorf("queried span %s belongs to trace %s, want %s", s.Name, s.TraceID, root.TraceID)
		}
	}
	// Structured events of the trace are served next to it (the lease
	// renewals at least).
	var events []trace.Event
	opsDoc(t, w.net.Node("ctl"), "robot1", "/events?trace="+root.TraceID, &events)
	hasLeaseEvent := false
	for _, e := range events {
		if e.Component == "lease" {
			hasLeaseEvent = true
		}
	}
	if !hasLeaseEvent {
		t.Errorf("no lease events returned with the trace (got %d events)", len(events))
	}

	// Unknown queries return nothing rather than everything.
	var empty []trace.SpanSnapshot
	opsDoc(t, w.net.Node("ctl"), "robot1", "/trace?q=no-such-ext", &empty)
	if len(empty) != 0 {
		t.Errorf("query for unknown extension returned %d spans", len(empty))
	}
}

func names(spans []trace.SpanSnapshot) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestScenarioTraceDeterministicReplay pins the determinism contract: under
// the manual clock and a fixed seed, two identical scripted runs produce
// byte-identical span snapshots — IDs, ordering, tags, errors and all. The
// run is fully synchronous (no simulated time passes) so the tracer's RNG
// draw order is pinned.
func TestScenarioTraceDeterministicReplay(t *testing.T) {
	seed := scenarioSeed(t)
	epoch := time.Unix(0, 0)
	run := func() []trace.SpanSnapshot {
		clk := clock.NewManual(epoch)
		net := simnet.New(clk, seed)
		defer net.Close()
		w := &simWorld{t: t, clk: clk, net: net, seed: seed}
		tr := trace.New(seed)
		tr.SetNow(func() time.Time { return epoch })

		b := newTracedBase(w, "base-1", tr, w.net.Node("base-1"))
		n := w.newNode("robot1", b.signer)
		n.receiver.Trace(tr)
		net.SetDefault(simnet.LinkProfile{Loss: 0.3, Dup: 0.2})

		if err := b.base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := b.base.AdaptNode("robot1", "robot1"); err == nil {
				break
			}
		}
		if n.receiver.Has("policy") {
			_ = b.base.RemoveExtension("policy")
		}
		return tr.Spans(trace.Filter{})
	}

	first := run()
	second := run()
	if len(first) == 0 {
		t.Fatal("scripted run recorded no spans")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed, different traces:\nrun1: %v\nrun2: %v", names(first), names(second))
	}
}

// TestScenarioTraceSentinelOverSimnet pins the satellite fix end to end on
// the simulated fabric: a typed error crossing the simnet boundary must still
// satisfy errors.Is at the caller.
func TestScenarioTraceSentinelOverSimnet(t *testing.T) {
	w := newSimWorld(t)
	b := w.newBase("base-1", nil)
	_ = w.newNode("robot1", b.signer)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := transport.Invoke[core.RenewExtReq, core.RenewExtResp](ctx, w.net.Node("base-1"), "robot1",
		core.MethodRenewE, core.RenewExtReq{LeaseID: "bogus", DurMillis: 1000})
	if !errors.Is(err, lease.ErrUnknownLease) {
		t.Fatalf("renewal of a bogus lease over simnet: errors.Is(err, lease.ErrUnknownLease) = false, err = %v", err)
	}
}
