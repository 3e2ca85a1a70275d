package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/lease"
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
	lookupSrv := registry.NewServer(c.lookup, lookupMux, c.fabric.Node("lookup-1"), clock.Real{})
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
	c.base.mu.Lock()
	policySet := len(c.base.extensions)
	c.base.mu.Unlock()
	if policySet != 0 {
		t.Errorf("policy set holds %d extensions after RemoveExtension", policySet)
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

// TestLossyLinkSurvivesWithRetries injects deterministic message loss through
// the fabric's link oracle: every second message is dropped, and the base's
// in-lease renewal retries keep the adaptation alive (§2.1's wireless
// setting).
func TestLossyLinkSurvivesWithRetries(t *testing.T) {
	c := newCluster(t, 120*time.Millisecond)
	defer c.close()
	if err := c.base.AddExtension(noopExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "install", func() bool { return c.receiver.Has("policy") })

	// Drop every second message on the in-range links.
	inRange := c.world.LinkFunc()
	var calls atomic.Uint64
	c.fabric.SetLinkFunc(func(from, to string) bool {
		return inRange(from, to) && calls.Add(1)%2 != 0
	})
	time.Sleep(500 * time.Millisecond)
	c.fabric.SetLinkFunc(inRange)
	if !c.receiver.Has("policy") {
		t.Error("adaptation lost despite the in-lease renewal retries")
	}
	if got := len(c.base.Adapted()); got != 1 {
		t.Errorf("adapted nodes = %d, want 1: a lost message departed the node", got)
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
	srv := registry.NewServer(lookup, mux, fabric.Node("lookup-1"), clock.Real{})
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
	b, _ := newRecoveryBase(t, fabric, clk, signer, "", 0)
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

// TestBaseRewatchesAfterLookupEndsWatch: the lookup ends a watch whose
// deliveries failed three times in a row. The base's keeper learns it at its
// next renewal (ErrUnknownLease, counted in the base's registry), and the
// base watches again and re-runs its Find: the node whose arrival was lost
// and a node that arrives later are both adapted.
func TestBaseRewatchesAfterLookupEndsWatch(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	fabric := transport.NewInProc()
	var deaf atomic.Bool
	var refused atomic.Int64
	fabric.SetLinkFunc(func(from, to string) bool {
		if deaf.Load() && from == "lookup-1" && to == "base-1" {
			refused.Add(1)
			return false
		}
		return true
	})
	serveLookup(t, fabric, clk)
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	b, reg := newRecoveryBase(t, fabric, clk, signer, "", 0)
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
	client := &registry.Client{Caller: fabric.Node("base-1"), Addr: "lookup-1"}
	watchID, err := b.WatchLookup(client, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	advertise := func(name string) *Receiver {
		r, _, stop := serveNamedReceiver(t, fabric, clk, signer, name)
		t.Cleanup(stop)
		stopAdv, err := r.Advertise(&registry.Client{Caller: fabric.Node(name), Addr: "lookup-1"}, time.Minute, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stopAdv)
		return r
	}

	// robot1's arrival never reaches the base, and the lookup ends the watch.
	deaf.Store(true)
	r1 := advertise("robot1")
	waitUntil(t, "three failed deliveries", func() bool { return refused.Load() >= 3 })
	waitUntil(t, "the lookup to end the watch", func() bool {
		return errors.Is(client.RenewWatch(watchID, time.Minute), lease.ErrUnknownLease)
	})
	deaf.Store(false)
	if got := len(b.Adapted()); got != 0 {
		t.Fatalf("%d nodes adapted while the base was deaf", got)
	}

	// The keeper's renewal at 30s finds the watch gone.
	for elapsed := time.Duration(0); elapsed < 31*time.Second; elapsed += time.Second {
		clk.Advance(time.Second)
		waitUntil(t, "renewals quiesced", b.RenewalsQuiesced)
	}
	waitUntil(t, "robot1 adapted by the re-run Find", func() bool { return r1.Has("policy") })
	if got := reg.CounterValue("lease.renew_failures"); got != 1 {
		t.Errorf("lease.renew_failures = %d, want 1 (the lost watch)", got)
	}

	r2 := advertise("robot2")
	waitUntil(t, "robot2 adapted through the new watch", func() bool { return r2.Has("policy") })
	if got := len(b.Adapted()); got != 2 {
		t.Errorf("%d nodes adapted, want 2", got)
	}
}

// TestLookupHealthFailsWhileWatchLost: the lookup health check (served by
// cmd/basestation at /healthz) fails from the moment the base's keeper loses
// the lookup watch until a re-watch re-establishes it. The base is cut off
// from the lookup, so the keeper's renewal at 30s and its retries fail and
// the watch is lost at the end of its cycle; the re-watch fails too until
// the link heals.
func TestLookupHealthFailsWhileWatchLost(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	fabric := transport.NewInProc()
	var cut atomic.Bool
	fabric.SetLinkFunc(func(from, to string) bool {
		return !cut.Load() || from != "base-1" || to != "lookup-1"
	})
	serveLookup(t, fabric, clk)
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newRecoveryBase(t, fabric, clk, signer, "", 0)
	baseMux := transport.NewMux()
	b.ServeOn(baseMux)
	stopBase, err := fabric.Serve("base-1", baseMux)
	if err != nil {
		t.Fatal(err)
	}
	defer stopBase()
	health := metrics.NewHealth()
	health.Register("lookup", b.LookupWatchErr)
	lookupErr := func() error {
		results, _ := health.Check()
		return results["lookup"]
	}
	step := func(d time.Duration) {
		for elapsed := time.Duration(0); elapsed < d; elapsed += time.Second {
			clk.Advance(time.Second)
			waitUntil(t, "renewals quiesced", b.RenewalsQuiesced)
		}
	}

	if err := lookupErr(); err != nil {
		t.Fatalf("lookup check before any watch: %v", err)
	}
	if _, err := b.WatchLookup(&registry.Client{Caller: fabric.Node("base-1"), Addr: "lookup-1"}, time.Minute); err != nil {
		t.Fatal(err)
	}
	cut.Store(true)
	step(50 * time.Second)
	if err := lookupErr(); err != nil {
		t.Fatalf("lookup check while the keeper still retries: %v", err)
	}
	step(10 * time.Second)
	waitUntil(t, "the lookup check to fail", func() bool { return lookupErr() != nil })
	if err := lookupErr(); !errors.Is(err, transport.ErrUnreachable) {
		t.Errorf("lookup check = %v, want the keeper's last error", err)
	}

	// Re-watching every 30s fails while the link stays cut.
	step(40 * time.Second)
	if lookupErr() == nil {
		t.Fatal("lookup check passed while the watch could not be re-established")
	}

	cut.Store(false)
	for elapsed := time.Duration(0); lookupErr() != nil; elapsed += time.Second {
		if elapsed > time.Minute {
			t.Fatalf("lookup check still failing a minute after the heal: %v", lookupErr())
		}
		step(time.Second)
	}
	var rewatched bool
	for _, a := range b.Activity() {
		rewatched = rewatched || a.Event == "rewatch"
	}
	if !rewatched {
		t.Error("lookup check passed with no rewatch logged")
	}
}
