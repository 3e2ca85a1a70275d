package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/lvm"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/registry"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/weave"
)

// cluster wires a lookup service, one base and one receiver node onto an
// in-proc fabric whose connectivity follows a mobility world.
type cluster struct {
	fabric   *transport.InProc
	world    *mobility.World
	lookup   *registry.Lookup
	base     *Base
	baseSt   *store.Store
	receiver *Receiver
	weaver   *weave.Weaver
	stops    []func()
}

func (c *cluster) close() {
	for i := len(c.stops) - 1; i >= 0; i-- {
		c.stops[i]()
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	testutil.WaitFor(t, what, cond)
}

func newCluster(t *testing.T, leaseDur time.Duration) *cluster {
	t.Helper()
	c := &cluster{
		fabric: transport.NewInProc(),
		world:  mobility.NewWorld(),
	}
	if err := c.world.AddArea(mobility.Area{Name: "hall-1", Center: mobility.Point{X: 0, Y: 0}, Radius: 10, BaseAddr: "base-1"}); err != nil {
		t.Fatal(err)
	}
	// The lookup service is wired infrastructure reachable only in-hall for
	// nodes; anchor it to the hall by reusing the base address convention.
	if err := c.world.AddNode("robot1", "robot1", mobility.Point{X: 0, Y: 0}); err != nil {
		t.Fatal(err)
	}
	c.fabric.SetLinkFunc(c.world.LinkFunc())

	// Lookup service.
	c.lookup = registry.NewLookup(clock.Real{})
	c.lookup.Grantor().Start(5 * time.Millisecond)
	c.stops = append(c.stops, c.lookup.Grantor().Stop)
	lookupMux := transport.NewMux()
	lookupSrv := registry.NewServer("lookup-1", c.lookup, lookupMux, c.fabric.Node("lookup-1"), clock.Real{})
	stop, err := c.fabric.Serve("lookup-1", lookupMux)
	if err != nil {
		t.Fatal(err)
	}
	c.stops = append(c.stops, stop, lookupSrv.Close)

	// Base.
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	c.baseSt = store.NewMemory()
	c.base, err = NewBase(BaseConfig{
		Name:          "base-1",
		Addr:          "base-1",
		Caller:        c.fabric.Node("base-1"),
		Signer:        signer,
		Store:         c.baseSt,
		LeaseDur:      leaseDur,
		RenewFraction: 0.5,
		CallTimeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	baseMux := transport.NewMux()
	c.base.ServeOn(baseMux)
	stop, err = c.fabric.Serve("base-1", baseMux)
	if err != nil {
		t.Fatal(err)
	}
	c.stops = append(c.stops, stop, c.base.Close)

	// Receiver node.
	trust := sign.NewTrustStore()
	trust.Trust("hall-1", signer.PublicKey())
	c.weaver = weave.New()
	builtins := NewBuiltins()
	builtins.Register("noop", func(*Env, map[string]string) (aop.Body, error) {
		return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
	})
	c.receiver, err = NewReceiver(ReceiverConfig{
		NodeName: "robot1",
		Addr:     "robot1",
		Weaver:   c.weaver,
		Trust:    trust,
		Policy:   sandbox.AllowAll(),
		Host:     lvm.HostMap{},
		Builtins: builtins,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.receiver.Grantor().Start(5 * time.Millisecond)
	c.stops = append(c.stops, c.receiver.Grantor().Stop)
	nodeMux := transport.NewMux()
	c.receiver.ServeOn(nodeMux)
	stop, err = c.fabric.Serve("robot1", nodeMux)
	if err != nil {
		t.Fatal(err)
	}
	c.stops = append(c.stops, stop)

	return c
}

func noopExt(name string, version int) Extension {
	return Extension{
		ID:      "ext/" + name,
		Name:    name,
		Version: version,
		Advices: []AdviceSpec{{
			Name:    "a",
			Kind:    KindCallBefore,
			Pattern: "Motor.*(..)",
			Builtin: "noop",
		}},
	}
}

func TestBaseAdaptsArrivingNode(t *testing.T) {
	c := newCluster(t, 200*time.Millisecond)
	defer c.close()

	if err := c.base.AddExtension(noopExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.base.WatchLookup(&registry.Client{Caller: c.fabric.Node("base-1"), Addr: "lookup-1"}, time.Minute); err != nil {
		t.Fatal(err)
	}

	// Node arrives: its adaptation service advertises itself.
	client := &registry.Client{Caller: c.fabric.Node("robot1"), Addr: "lookup-1"}
	stopAdv, err := c.receiver.Advertise(client, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stopAdv()

	waitUntil(t, "extension installed", func() bool { return c.receiver.Has("policy") })
	waitUntil(t, "node adapted at base", func() bool { return len(c.base.Adapted()) == 1 })
}

func TestNodeDepartureRevokesExtensions(t *testing.T) {
	c := newCluster(t, 100*time.Millisecond)
	defer c.close()

	if err := c.base.AddExtension(noopExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "install", func() bool { return c.receiver.Has("policy") })

	// The robot leaves the hall: links to base-1 drop.
	if err := c.world.MoveNode("robot1", mobility.Point{X: 1000, Y: 0}); err != nil {
		t.Fatal(err)
	}

	// The base notices via failing renewals; the receiver's lease lapses and
	// the extension is withdrawn autonomously.
	waitUntil(t, "lease expiry withdrawal", func() bool { return !c.receiver.Has("policy") })
	waitUntil(t, "base departure record", func() bool { return len(c.base.Adapted()) == 0 })

	sawExpire := false
	for _, a := range c.receiver.Activity() {
		if a.Event == "expire" && a.Ext == "policy" {
			sawExpire = true
		}
	}
	if !sawExpire {
		t.Error("receiver activity lacks expire event")
	}
	sawDepart := false
	for _, a := range c.base.Activity() {
		if a.Event == "depart" {
			sawDepart = true
		}
	}
	if !sawDepart {
		t.Error("base activity lacks depart event")
	}
}

func TestPolicyEvolutionPushesReplacement(t *testing.T) {
	c := newCluster(t, 200*time.Millisecond)
	defer c.close()

	if err := c.base.AddExtension(noopExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "v1 install", func() bool { return c.receiver.Has("policy") })

	if err := c.base.ReplaceExtension(noopExt("policy", 2)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "v2 replace", func() bool {
		for _, info := range c.receiver.Installed() {
			if info.Name == "policy" && info.Version == 2 {
				return true
			}
		}
		return false
	})

	// Stale replacement rejected.
	if err := c.base.ReplaceExtension(noopExt("policy", 2)); err == nil {
		t.Error("equal version replacement should fail")
	}
}

func TestRemoveExtensionRevokesRemotely(t *testing.T) {
	c := newCluster(t, 200*time.Millisecond)
	defer c.close()

	if err := c.base.AddExtension(noopExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "install", func() bool { return c.receiver.Has("policy") })

	if err := c.base.RemoveExtension("policy"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "revoke", func() bool { return !c.receiver.Has("policy") })
	if got := c.base.Extensions(); len(got) != 0 {
		t.Errorf("Extensions = %v", got)
	}
}

func TestAddExtensionPushesToAdaptedNodes(t *testing.T) {
	c := newCluster(t, 200*time.Millisecond)
	defer c.close()

	if err := c.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	if err := c.base.AddExtension(noopExt("late", 1)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "late extension", func() bool { return c.receiver.Has("late") })
}

func TestBasePostStoresRecord(t *testing.T) {
	c := newCluster(t, 200*time.Millisecond)
	defer c.close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := transport.Invoke[PostReq, EmptyResp](ctx, c.fabric.Node("robot1"), "base-1", MethodBasePost, PostReq{
		Record: store.Record{Robot: "robot1", Device: "motor:x", Action: "rotate", Value: 30, AtMillis: 123},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := c.baseSt.Query(store.Filter{Robot: "robot1"})
	if len(recs) != 1 || recs[0].Action != "rotate" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestRoamingHandoff(t *testing.T) {
	c := newCluster(t, 100*time.Millisecond)
	defer c.close()

	// Second hall with its own base, trusting signer of base-2.
	if err := c.world.AddArea(mobility.Area{Name: "hall-2", Center: mobility.Point{X: 100, Y: 0}, Radius: 10, BaseAddr: "base-2"}); err != nil {
		t.Fatal(err)
	}
	signer2, err := sign.NewSigner("hall-2")
	if err != nil {
		t.Fatal(err)
	}
	base2, err := NewBase(BaseConfig{
		Name:          "base-2",
		Addr:          "base-2",
		Caller:        c.fabric.Node("base-2"),
		Signer:        signer2,
		LeaseDur:      100 * time.Millisecond,
		RenewFraction: 0.5,
		CallTimeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux2 := transport.NewMux()
	base2.ServeOn(mux2)
	stop, err := c.fabric.Serve("base-2", mux2)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	defer base2.Close()
	if err := base2.AddExtension(noopExt("hall2-policy", 1)); err != nil {
		t.Fatal(err)
	}

	// Receiver must trust hall-2's signer too (its own preference, §3.2).
	c.receiver.cfg.Trust.Trust("hall-2", signer2.PublicKey())

	c.base.AddNeighbor("base-2")
	if err := c.base.AddExtension(noopExt("hall1-policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "hall-1 adaptation", func() bool { return c.receiver.Has("hall1-policy") })

	// The robot migrates from hall-1 into hall-2.
	if err := c.world.MoveNode("robot1", mobility.Point{X: 100, Y: 0}); err != nil {
		t.Fatal(err)
	}

	// Hall-1's policy is revoked; the roaming hint lets base-2 adapt the node
	// without waiting for a fresh discovery round.
	waitUntil(t, "hall-1 revocation", func() bool { return !c.receiver.Has("hall1-policy") })
	waitUntil(t, "hall-2 adaptation", func() bool { return c.receiver.Has("hall2-policy") })
}

// TestLossyLinkSurvivesWithRetries injects deterministic message loss into
// the fabric: without renewal retries the base spuriously declares the node
// departed; with retries the adaptation survives (§2.1's wireless setting).
func TestLossyLinkSurvivesWithRetries(t *testing.T) {
	run := func(retries int) (stillAdapted bool) {
		c := newCluster(t, 120*time.Millisecond)
		defer c.close()
		if err := c.base.AddExtension(noopExt("policy", 1)); err != nil {
			t.Fatal(err)
		}
		// Reconfigure the base with the retry budget under test.
		base2, err := NewBase(BaseConfig{
			Name: "base-1b", Addr: "base-1", Caller: c.fabric.Node("base-1"),
			Signer: c.base.Signer(), LeaseDur: 120 * time.Millisecond,
			RenewFraction: 0.5, RenewRetries: retries,
			CallTimeout: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer base2.Close()
		if err := base2.AddExtension(noopExt("policy", 1)); err != nil {
			t.Fatal(err)
		}
		if err := base2.AdaptNode("robot1", "robot1"); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "install", func() bool { return c.receiver.Has("policy") })

		// Drop every second message.
		c.fabric.SetLoss(1, 2)
		time.Sleep(500 * time.Millisecond)
		c.fabric.SetLoss(0, 0)
		return c.receiver.Has("policy")
	}

	if run(0) {
		t.Log("note: without retries the adaptation happened to survive 50% loss this run")
	}
	if !run(3) {
		t.Error("adaptation lost despite 3 renewal retries")
	}
}

// A node that is transiently unreachable while the base pushes its policy set
// still converges: the retry policy re-sends the install once the link heals,
// and the receiver's idempotent surface absorbs any duplicate delivery.
func TestAdaptNodeRetriesThroughTransientPartition(t *testing.T) {
	fabric := transport.NewInProc()
	var down atomic.Bool
	fabric.SetLinkFunc(func(from, to string) bool {
		return !down.Load() || from != "base-1" || to != "robot1"
	})

	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	trust := sign.NewTrustStore()
	trust.Trust("hall-1", signer.PublicKey())
	builtins := NewBuiltins()
	builtins.Register("noop", func(*Env, map[string]string) (aop.Body, error) {
		return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
	})
	recv, err := NewReceiver(ReceiverConfig{
		NodeName: "robot1",
		Addr:     "robot1",
		Weaver:   weave.New(),
		Trust:    trust,
		Policy:   sandbox.AllowAll(),
		Host:     lvm.HostMap{},
		Builtins: builtins,
	})
	if err != nil {
		t.Fatal(err)
	}
	recvMux := transport.NewMux()
	recv.ServeOn(recvMux)
	stop, err := fabric.Serve("robot1", recvMux)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	pol := transport.NewPolicy(7)
	pol.MaxAttempts = 20
	pol.BaseDelay = 10 * time.Millisecond
	pol.MaxDelay = 20 * time.Millisecond
	reg := metrics.New()
	pol.Instrument(reg)
	base, err := NewBase(BaseConfig{
		Name:        "base-1",
		Addr:        "base-1",
		Caller:      fabric.Node("base-1"),
		Signer:      signer,
		CallTimeout: 5 * time.Second,
		Policy:      pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if err := base.AddExtension(noopExt("policy", 1)); err != nil {
		t.Fatal(err)
	}

	down.Store(true)
	adapted := make(chan error, 1)
	go func() { adapted <- base.AdaptNode("robot1", "robot1") }()
	time.Sleep(30 * time.Millisecond) // let a few attempts fail
	down.Store(false)

	if err := <-adapted; err != nil {
		t.Fatalf("AdaptNode through transient partition: %v", err)
	}
	if !recv.Has("policy") {
		t.Fatal("extension not installed after link healed")
	}
	if got := reg.Snapshot().Counters["transport.retries"]; got == 0 {
		t.Fatal("partition never forced a retry")
	}
}

// serveLookup serves a lookup service on clk at "lookup-1" on fabric, with
// its lease sweeper running every second of clk.
func serveLookup(t *testing.T, fabric *transport.InProc, clk clock.Clock) *registry.Lookup {
	t.Helper()
	lookup := registry.NewLookup(clk)
	lookup.Grantor().Start(time.Second)
	t.Cleanup(lookup.Grantor().Stop)
	mux := transport.NewMux()
	srv := registry.NewServer("lookup-1", lookup, mux, fabric.Node("lookup-1"), clock.Real{})
	stop, err := fabric.Serve("lookup-1", mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stop(); srv.Close() })
	return lookup
}

// TestAdvertiseKeepsRegistrationAlive: a node's advertisement outlives three
// lease windows because the receiver renews it, and the stop function
// deregisters it.
func TestAdvertiseKeepsRegistrationAlive(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	fabric := transport.NewInProc()
	lookup := serveLookup(t, fabric, clk)
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	r, reg, stop := serveReceiver(t, fabric, clk, signer)
	defer stop()

	stopAdv, err := r.Advertise(&registry.Client{Caller: fabric.Node("robot1"), Addr: "lookup-1"}, 10*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Renewals land every 5s; each one is awaited before the clock moves on.
	for sec := 1; sec <= 30; sec++ {
		clk.Advance(time.Second)
		if sec%5 == 0 {
			testutil.WaitForCounter(t, reg, "lease.renews_sent", uint64(sec/5))
		}
		lookup.ExpireNow()
		if n := len(lookup.Find(registry.Template{Name: AdaptationService})); n != 1 {
			t.Fatalf("at t=%ds the lookup holds %d registrations, want 1", sec, n)
		}
	}
	stopAdv()
	if n := len(lookup.Find(registry.Template{Name: AdaptationService})); n != 0 {
		t.Fatalf("%d registrations after stop, want 0 (deregistered)", n)
	}
}

// TestBaseWatchOutlivesItsLease: a base watching the lookup for one minute
// still hears a node that arrives five minutes later, because it renews the
// watch while the lookup's sweeper runs.
func TestBaseWatchOutlivesItsLease(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	fabric := transport.NewInProc()
	serveLookup(t, fabric, clk)
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newRecoveryBase(t, fabric, clk, signer, "", nil)
	baseMux := transport.NewMux()
	b.ServeOn(baseMux)
	stopBase, err := fabric.Serve("base-1", baseMux)
	if err != nil {
		t.Fatal(err)
	}
	defer stopBase()
	if err := b.AddExtension(recoveryExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	r, _, stopNode := serveReceiver(t, fabric, clk, signer)
	defer stopNode()

	if _, err := b.WatchLookup(&registry.Client{Caller: fabric.Node("base-1"), Addr: "lookup-1"}, time.Minute); err != nil {
		t.Fatal(err)
	}
	for elapsed := time.Duration(0); elapsed < 5*time.Minute; elapsed += time.Second {
		clk.Advance(time.Second)
		waitUntil(t, "renewals quiesced", b.RenewalsQuiesced)
	}

	stopAdv, err := r.Advertise(&registry.Client{Caller: fabric.Node("robot1"), Addr: "lookup-1"}, time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stopAdv()
	waitUntil(t, "node adapted after the watch's first lease", func() bool { return len(b.Adapted()) == 1 })
	waitUntil(t, "extension installed", func() bool { return r.Has("policy") })
}
