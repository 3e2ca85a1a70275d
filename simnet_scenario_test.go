// Scenario tests driving the whole platform — bases, receivers, leases,
// lookup — over the deterministic network simulator: partitions, asymmetric
// link failures, crashes, duplication and loss, i.e. the wireless conditions
// the paper's proactive middleware is built to survive. Every scenario runs
// on a manual clock and a seeded fault stream; set SIMNET_SEED to replay a
// failing run exactly.
package repro

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lvm"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/simnet"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/weave"
)

// scenarioSeed returns the fault seed: SIMNET_SEED when set, a random one
// (logged for replay) otherwise.
func scenarioSeed(t *testing.T) int64 {
	t.Helper()
	return testutil.SeedFromEnv(t, "SIMNET_SEED", time.Now().UnixNano())
}

// simWorld bundles the manual clock and the simulated network a scenario
// plays out on.
type simWorld struct {
	t    *testing.T
	clk  *clock.Manual
	net  *simnet.Net
	seed int64
}

func newSimWorld(t *testing.T) *simWorld {
	t.Helper()
	w := &simWorld{
		t:    t,
		clk:  clock.NewManual(time.Unix(0, 0)),
		seed: scenarioSeed(t),
	}
	w.net = simnet.New(w.clk, w.seed)
	t.Cleanup(w.net.Close)
	return w
}

// advance moves simulated time forward, yielding so renewers, sweepers and
// reconcile loops woken along the way get to run.
func (w *simWorld) advance(total, step time.Duration) {
	simnet.Advance(w.clk, total, step)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	testutil.WaitFor(t, what, cond)
}

// scenarioNode is one mobile node: a receiver with its own metrics registry
// and a shutdown counter fed by the "tracked" builtin.
type scenarioNode struct {
	name      string
	receiver  *core.Receiver
	reg       *metrics.Registry
	mux       *transport.Mux
	shutdowns atomic.Int64
}

func (n *scenarioNode) counter(name string) uint64 {
	return testutil.Counter(n.reg, name)
}

func (w *simWorld) newNode(name string, trusted *sign.Signer) *scenarioNode {
	w.t.Helper()
	n := &scenarioNode{name: name, reg: metrics.New()}
	trust := sign.NewTrustStore()
	trust.Trust(trusted.Name, trusted.PublicKey())
	builtins := core.NewBuiltins()
	builtins.Register("noop", func(*core.Env, map[string]string) (aop.Body, error) {
		return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
	})
	builtins.Register("tracked", func(*core.Env, map[string]string) (aop.Body, error) {
		return &trackedBody{node: n}, nil
	})
	receiver, err := core.NewReceiver(core.ReceiverConfig{
		NodeName: name,
		Addr:     name,
		Weaver:   weave.New(),
		Trust:    trust,
		Policy:   sandbox.AllowAll(),
		Clock:    w.clk,
		Host:     lvm.HostMap{},
		Builtins: builtins,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	n.receiver = receiver
	receiver.Instrument(n.reg)
	receiver.Grantor().Start(time.Second)
	w.t.Cleanup(receiver.Grantor().Stop)
	n.mux = transport.NewMux()
	receiver.ServeOn(n.mux)
	stop, err := w.net.Serve(name, n.mux)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(stop)
	return n
}

// trackedBody counts its shutdowns so duplicate revocations are observable.
type trackedBody struct{ node *scenarioNode }

func (b *trackedBody) Exec(*aop.Context) error { return nil }
func (b *trackedBody) Shutdown()               { b.node.shutdowns.Add(1) }

// scenarioBase is one extension base on the simulated clock.
type scenarioBase struct {
	name   string
	base   *core.Base
	reg    *metrics.Registry
	signer *sign.Signer
}

func (b *scenarioBase) counter(name string) uint64 {
	return testutil.Counter(b.reg, name)
}

// newBase wires a base at name. A nil signer mints a fresh identity; pass an
// existing one to model a restarted base that keeps its keys.
func (w *simWorld) newBase(name string, signer *sign.Signer) *scenarioBase {
	w.t.Helper()
	var err error
	if signer == nil {
		if signer, err = sign.NewSigner(name); err != nil {
			w.t.Fatal(err)
		}
	}
	b := &scenarioBase{name: name, reg: metrics.New(), signer: signer}
	b.base, err = core.NewBase(core.BaseConfig{
		Name:        name,
		Addr:        name,
		Caller:      w.net.Node(name),
		Signer:      signer,
		Clock:       w.clk,
		CallTimeout: time.Hour, // the simulated clock governs; simnet fails lost calls at once
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(b.base.Close)
	b.base.Instrument(b.reg)
	mux := transport.NewMux()
	b.base.ServeOn(mux)
	stop, err := w.net.Serve(name, mux)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(stop)
	return b
}

func noopScenarioExt(name string, version int) core.Extension {
	return core.Extension{
		ID:      "ext/" + name,
		Name:    name,
		Version: version,
		Advices: []core.AdviceSpec{{
			Name:    "a",
			Kind:    core.KindCallBefore,
			Pattern: "Motor.*(..)",
			Builtin: "noop",
		}},
	}
}

func trackedScenarioExt(name string, version int) core.Extension {
	e := noopScenarioExt(name, version)
	e.Advices[0].Builtin = "tracked"
	return e
}

// adaptWithRetries keeps calling AdaptNode until it converges; on lossy links
// a single push can be lost, and a real base would try again on the next
// discovery beacon.
func adaptWithRetries(t *testing.T, b *scenarioBase, nodeID, addr string) {
	t.Helper()
	for i := 0; i < 50; i++ {
		if err := b.base.AdaptNode(nodeID, addr); err == nil {
			return
		}
	}
	t.Fatalf("AdaptNode(%s) never converged in 50 rounds", addr)
}

// Scenario 1 — departure mid-lease: the node walks out of radio range (full
// partition), the base's renewals fail and it declares the node departed; the
// node's lease lapses and it autonomously withdraws the adaptation (§3.2).
func TestScenarioDepartureMidLease(t *testing.T) {
	w := newSimWorld(t)
	b := w.newBase("base-1", nil)
	n := w.newNode("robot1", b.signer)
	if err := b.base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	if !n.receiver.Has("policy") {
		t.Fatal("extension not installed")
	}

	// One renewal cycle passes while in range.
	w.advance(6*time.Second, time.Second)
	if got := b.base.Adapted(); len(got) != 1 {
		t.Fatalf("adapted = %v before the partition", got)
	}

	w.net.PartitionBoth("base-1", "robot1")
	w.advance(20*time.Second, time.Second)

	waitFor(t, "base departure", func() bool { return len(b.base.Adapted()) == 0 })
	waitFor(t, "autonomous withdrawal", func() bool { return !n.receiver.Has("policy") })
	if got := b.counter("base.departures"); got != 1 {
		t.Fatalf("base.departures = %d, want 1", got)
	}
	if got := n.counter("ext.expiries"); got != 1 {
		t.Fatalf("ext.expiries = %d, want 1", got)
	}
}

// Scenario 2 — asymmetric response loss: the node still hears the base, but
// the base never hears the node. Renewals keep executing at the node (its
// lease stays fresh for a while) while the base only sees failures; both
// sides still converge on "departed" once the base gives up and stops
// renewing.
func TestScenarioAsymmetricResponseLoss(t *testing.T) {
	w := newSimWorld(t)
	b := w.newBase("base-1", nil)
	n := w.newNode("robot1", b.signer)
	if err := b.base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}

	renewalsBefore := n.counter("lease.renewals")
	w.net.Partition("robot1", "base-1") // responses from the node are lost
	w.advance(15*time.Second, time.Second)
	waitFor(t, "base departure", func() bool { return len(b.base.Adapted()) == 0 })

	// The handler side of every failed renewal still ran.
	if got := n.counter("lease.renewals"); got <= renewalsBefore {
		t.Fatalf("lease.renewals = %d, want > %d (renewals executed at the node)", got, renewalsBefore)
	}
	if b.counter("base.departures") != 1 {
		t.Fatalf("base.departures = %d, want 1", b.counter("base.departures"))
	}
	// With nobody renewing, the node's lease lapses and it withdraws.
	w.advance(15*time.Second, time.Second)
	waitFor(t, "autonomous withdrawal", func() bool { return !n.receiver.Has("policy") })
	if got := n.counter("ext.expiries"); got != 1 {
		t.Fatalf("ext.expiries = %d, want 1", got)
	}
}

// Scenario 3 — flapping link during adaptation: the install executes at the
// node but the response is lost, so the base believes it failed. When the
// link heals, the re-push refreshes the existing install instead of erroring,
// and exactly one install ever happens.
func TestScenarioFlappingLinkIdempotentPush(t *testing.T) {
	w := newSimWorld(t)
	b := w.newBase("base-1", nil)
	n := w.newNode("robot1", b.signer)
	if err := b.base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
		t.Fatal(err)
	}

	w.net.Partition("robot1", "base-1") // responses lost
	if err := b.base.AdaptNode("robot1", "robot1"); err == nil {
		t.Fatal("adapt through response loss should fail at the base")
	}
	if !n.receiver.Has("policy") {
		t.Fatal("install request should have executed at the node")
	}
	if len(b.base.Adapted()) != 0 {
		t.Fatal("base should not consider the node adapted")
	}

	w.net.Heal("robot1", "base-1")
	if err := b.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatalf("re-adapt after heal: %v", err)
	}
	if got := n.counter("ext.installs"); got != 1 {
		t.Fatalf("ext.installs = %d, want exactly 1", got)
	}
	if got := n.counter("ext.refreshes"); got == 0 {
		t.Fatal("re-push should have refreshed the existing install")
	}
	// The refreshed lease is being renewed: it survives several periods.
	w.advance(25*time.Second, time.Second)
	if !n.receiver.Has("policy") {
		t.Fatal("extension lapsed although the base is renewing")
	}
}

// Scenario 4 — base crash and restart with rediscovery: the base dies, the
// node's adaptations expire autonomously, and a restarted base (same keys,
// wiped runtime state) re-finds the node through the lookup service and
// re-adapts it.
func TestScenarioBaseCrashRestartRediscovery(t *testing.T) {
	w := newSimWorld(t)

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

	b1 := w.newBase("base-1", nil)
	if err := b1.base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	n := w.newNode("robot1", b1.signer)
	stopAdvertise, err := n.receiver.Advertise(
		&registry.Client{Caller: w.net.Node("robot1"), Addr: "lookup-1", Timeout: time.Hour},
		time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAdvertise)
	if _, err := b1.base.WatchLookup(
		&registry.Client{Caller: w.net.Node("base-1"), Addr: "lookup-1", Timeout: time.Hour},
		time.Minute); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial adaptation via lookup", func() bool { return n.receiver.Has("policy") })

	// The base dies. Its in-process renewers are gone with it.
	w.net.Crash("base-1")
	b1.base.Close()
	w.advance(25*time.Second, time.Second)
	waitFor(t, "autonomous withdrawal after base death", func() bool { return !n.receiver.Has("policy") })

	// A fresh base process comes back on the same address with the same
	// identity but none of the old runtime state.
	w.net.Wipe("base-1")
	b2 := w.newBase("base-1", b1.signer)
	if err := b2.base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.base.WatchLookup(
		&registry.Client{Caller: w.net.Node("base-1"), Addr: "lookup-1", Timeout: time.Hour},
		time.Minute); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "re-adaptation by restarted base", func() bool { return n.receiver.Has("policy") })
	waitFor(t, "restarted base tracks the node", func() bool { return len(b2.base.Adapted()) == 1 })
	if got := n.counter("ext.installs"); got != 2 {
		t.Fatalf("ext.installs = %d, want 2 (one per base generation)", got)
	}
}

// Scenario 5 — duplicated revocation: the link duplicates every datagram, so
// the node receives each revoke twice. The extension's shutdown procedure
// still runs exactly once; the duplicate revoke is answered as already-done.
func TestScenarioDuplicateRevokeSingleShutdown(t *testing.T) {
	w := newSimWorld(t)
	b := w.newBase("base-1", nil)
	n := w.newNode("robot1", b.signer)
	if err := b.base.AddExtension(trackedScenarioExt("tracked-policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}

	w.net.SetLink("base-1", "robot1", simnet.LinkProfile{Dup: 1})
	if err := b.base.RemoveExtension("tracked-policy"); err != nil {
		t.Fatal(err)
	}
	if n.receiver.Has("tracked-policy") {
		t.Fatal("extension still installed after revoke")
	}
	if got := n.shutdowns.Load(); got != 1 {
		t.Fatalf("shutdowns = %d, want exactly 1 despite the duplicate revoke", got)
	}
	if got := n.counter("ext.withdrawals"); got != 1 {
		t.Fatalf("ext.withdrawals = %d, want 1", got)
	}
	// The base saw a clean revoke, not an error from the duplicate.
	for _, a := range b.base.Activity() {
		if a.Event == "revoke" && a.Detail != "" {
			t.Fatalf("revoke reported failure: %q", a.Detail)
		}
	}
}

// Scenario 6 — stale delayed duplicate: the link holds a copy of the v1
// install back and delivers it long after v2 replaced it. The receiver
// rejects the stale version and keeps v2.
func TestScenarioStaleDuplicateInstallRejected(t *testing.T) {
	w := newSimWorld(t)
	b := w.newBase("base-1", nil)
	n := w.newNode("robot1", b.signer)
	w.net.SetLink("base-1", "robot1", simnet.LinkProfile{Dup: 1, DupDelay: 3 * time.Second})

	if err := b.base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	if err := b.base.ReplaceExtension(noopScenarioExt("policy", 2)); err != nil {
		t.Fatal(err)
	}
	installed := n.receiver.Installed()
	if len(installed) != 1 || installed[0].Version != 2 {
		t.Fatalf("installed = %+v, want policy v2", installed)
	}

	// Deliver the held-back duplicates: the stale v1 bounces off, the v2
	// duplicate refreshes.
	w.advance(4*time.Second, time.Second)
	waitFor(t, "stale duplicate rejected", func() bool { return n.counter("ext.rejects") >= 1 })
	installed = n.receiver.Installed()
	if len(installed) != 1 || installed[0].Version != 2 {
		t.Fatalf("installed = %+v after stale duplicate, want policy v2", installed)
	}
}

// Scenario 7 — node crash with wiped state: the node dies losing everything,
// the base notices the departure, and when a fresh node comes back under the
// same name it is adapted from scratch.
func TestScenarioNodeCrashWipedReadapts(t *testing.T) {
	w := newSimWorld(t)
	b := w.newBase("base-1", nil)
	n1 := w.newNode("robot1", b.signer)
	if err := b.base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}

	w.net.Wipe("robot1")
	w.advance(15*time.Second, time.Second)
	waitFor(t, "base departure after node crash", func() bool { return len(b.base.Adapted()) == 0 })

	// A fresh node reappears under the same address; the base re-adapts it
	// (modelling the next discovery round) with a clean install.
	n2 := w.newNode("robot1", b.signer)
	if err := b.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	if !n2.receiver.Has("policy") {
		t.Fatal("fresh node not adapted")
	}
	if got := n2.counter("ext.installs"); got != 1 {
		t.Fatalf("fresh node ext.installs = %d, want 1", got)
	}
	if got := n2.counter("ext.refreshes"); got != 0 {
		t.Fatalf("fresh node ext.refreshes = %d, want 0 (state was wiped)", got)
	}
	if got := n1.counter("ext.installs"); got != 1 {
		t.Fatalf("old node counters moved after the wipe: installs = %d", got)
	}
}

// Scenario 8 — lossy wireless link: with 25 % loss in both directions, the
// adaptation still converges and the in-lease renewal retries keep the lease
// alive across many renewal periods.
func TestScenarioLossyLinkConverges(t *testing.T) {
	w := newSimWorld(t)
	netReg := metrics.New()
	w.net.Instrument(netReg)
	b := w.newBase("base-1", nil)
	n := w.newNode("robot1", b.signer)
	w.net.SetDefault(simnet.LinkProfile{Loss: 0.25})
	if err := b.base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
		t.Fatal(err)
	}

	adaptWithRetries(t, b, "robot1", "robot1")
	if !n.receiver.Has("policy") {
		t.Fatal("extension not installed")
	}
	if got := n.counter("ext.installs"); got != 1 {
		t.Fatalf("ext.installs = %d, want exactly 1 despite retries", got)
	}

	// Six renewal periods under loss: retries keep the lease alive.
	lossesBefore := netReg.CounterValue("simnet.losses")
	w.advance(30*time.Second, 500*time.Millisecond)
	if !n.receiver.Has("policy") {
		t.Fatal("lease lapsed on the lossy link")
	}
	if got := b.base.Adapted(); len(got) != 1 {
		t.Fatalf("adapted = %v after 30s of loss", got)
	}
	// Renewals are the only traffic now, so every message lost failed a
	// renewal attempt: the lease survived because in-lease retries absorbed
	// those failures.
	if netReg.CounterValue("simnet.losses") > lossesBefore && b.counter("lease.renew_retries") == 0 {
		t.Fatal("the network dropped renewal messages but no renewal was retried")
	}
}

// Scenario 9 — deterministic replay: the same seed reproduces the same
// fault pattern, call outcomes and metrics, bit for bit. The run is fully
// scripted (no simulated time passes, so no renewal goroutines interleave)
// to pin the per-link RNG draw order.
func TestScenarioDeterministicReplay(t *testing.T) {
	seed := scenarioSeed(t)
	run := func() (metrics.Snapshot, metrics.Snapshot, []bool) {
		clk := clock.NewManual(time.Unix(0, 0))
		net := simnet.New(clk, seed)
		defer net.Close()
		w := &simWorld{t: t, clk: clk, net: net, seed: seed}
		netReg := metrics.New()
		net.Instrument(netReg)
		b := w.newBase("base-1", nil)
		n := w.newNode("robot1", b.signer)
		net.SetDefault(simnet.LinkProfile{Loss: 0.3, Dup: 0.2})

		var outcomes []bool
		for v := 1; v <= 5; v++ {
			ext := noopScenarioExt("policy", v)
			var err error
			if v == 1 {
				err = b.base.AddExtension(ext)
				for i := 0; err == nil && i < 20; i++ {
					if aerr := b.base.AdaptNode("robot1", "robot1"); aerr == nil {
						break
					}
				}
			} else {
				err = b.base.ReplaceExtension(ext)
			}
			outcomes = append(outcomes, err == nil && n.receiver.Has("policy"))
		}
		return netReg.Snapshot(), n.reg.Snapshot(), outcomes
	}

	net1, node1, out1 := run()
	net2, node2, out2 := run()
	if !reflect.DeepEqual(out1, out2) {
		t.Fatalf("same seed, different outcomes:\n%v\n%v", out1, out2)
	}
	if !reflect.DeepEqual(net1, net2) {
		t.Fatalf("same seed, different network metrics:\n%+v\n%+v", net1, net2)
	}
	if !reflect.DeepEqual(node1, node2) {
		t.Fatalf("same seed, different node metrics:\n%+v\n%+v", node1, node2)
	}
}
