package core

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/discovery"
	"repro/internal/mobility"
	"repro/internal/registry"
	"repro/internal/transport"
)

// TestAutoJoin walks a node through two environments: hearing hall-1's
// beacons registers it there; moving to hall-2 shifts the registration, and
// the stale one expires on its own.
func TestAutoJoin(t *testing.T) {
	fabric := transport.NewInProc()
	world := mobility.NewWorld()
	if err := world.AddArea(mobility.Area{Name: "hall-1", Center: mobility.Point{X: 0}, Radius: 10, BaseAddr: "lookup-1"}); err != nil {
		t.Fatal(err)
	}
	if err := world.AddArea(mobility.Area{Name: "hall-2", Center: mobility.Point{X: 100}, Radius: 10, BaseAddr: "lookup-2"}); err != nil {
		t.Fatal(err)
	}
	if err := world.AddNode("robot1", "robot1", mobility.Point{X: 0}); err != nil {
		t.Fatal(err)
	}
	fabric.SetLinkFunc(world.LinkFunc())

	clk := clock.NewManual(time.Unix(0, 0))
	newLookup := func(addr string) *registry.Lookup {
		lookup := registry.NewLookup(clk)
		mux := transport.NewMux()
		srv := registry.NewServer(lookup, mux, fabric.Node(addr), clk)
		t.Cleanup(srv.Close)
		stop, err := fabric.Serve(addr, mux)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stop)
		return lookup
	}
	lookup1 := newLookup("lookup-1")
	lookup2 := newLookup("lookup-2")

	n := newTestNode(t)
	bus := discovery.NewBus()
	stop := n.receiver.AutoJoin(bus,
		func(addr string) *registry.Client {
			return &registry.Client{Caller: fabric.Node("robot1"), Addr: addr}
		},
		20*time.Second, nil,
		func(a discovery.Announcement) bool { return world.InArea("robot1", a.Area) },
	)
	defer stop()

	announceAll := func() {
		bus.Announce(discovery.Announcement{Name: "hall-1", LookupAddr: "lookup-1", Area: "hall-1"})
		bus.Announce(discovery.Announcement{Name: "hall-2", LookupAddr: "lookup-2", Area: "hall-2"})
	}

	announceAll()
	if got := lookup1.Find(registry.Template{Name: AdaptationService}); len(got) != 1 {
		t.Fatalf("hall-1 registrations = %v", got)
	}
	if got := lookup2.Find(registry.Template{}); len(got) != 0 {
		t.Fatalf("hall-2 should not hear the node: %v", got)
	}

	// Beacons keep the registration alive across lease boundaries.
	for i := 0; i < 3; i++ {
		clk.Advance(15 * time.Second)
		lookup1.ExpireNow()
		announceAll()
	}
	if got := lookup1.Find(registry.Template{Name: AdaptationService}); len(got) != 1 {
		t.Fatal("registration lapsed despite beacons")
	}

	// The robot migrates to hall-2.
	if err := world.MoveNode("robot1", mobility.Point{X: 100}); err != nil {
		t.Fatal(err)
	}
	announceAll()
	if got := lookup2.Find(registry.Template{Name: AdaptationService}); len(got) != 1 {
		t.Fatalf("hall-2 registrations = %v", got)
	}
	// hall-1's stale registration expires without renewals.
	clk.Advance(21 * time.Second)
	lookup1.ExpireNow()
	if got := lookup1.Find(registry.Template{}); len(got) != 0 {
		t.Fatalf("stale hall-1 registration survived: %v", got)
	}

	// After stop, announcements no longer register anywhere.
	stop()
	lookup2.ExpireNow()
	clk.Advance(21 * time.Second)
	lookup2.ExpireNow()
	announceAll()
	if got := lookup2.Find(registry.Template{}); len(got) != 0 {
		t.Fatalf("stopped auto-join still registering: %v", got)
	}
}
