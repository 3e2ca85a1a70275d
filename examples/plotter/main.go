// Plotter: the full prototype of §4.3–§4.5. A plotter robot enters a
// production hall; the hall's base station discovers its adaptation service
// through the lookup service and pushes the hardware-monitoring extension;
// the robot draws; every motor action lands in the base-station database;
// the drawing is then replayed onto a second plotter from the recorded
// movements and the replayed history is pruned from the database; finally the
// robot drives out of the hall along a waypoint route and the extension is
// revoked through lease expiry.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/lvm"
	"repro/internal/mobility"
	"repro/internal/plotter"
	"repro/internal/registry"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/transport"
	"repro/internal/weave"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fabric := transport.NewInProc()
	world := mobility.NewWorld()
	if err := world.AddArea(mobility.Area{Name: "hall-1", Center: mobility.Point{}, Radius: 10, BaseAddr: "base-1"}); err != nil {
		return err
	}
	if err := world.AddNode("plotter-1", "plotter-1", mobility.Point{X: 0, Y: 0}); err != nil {
		return err
	}
	fabric.SetLinkFunc(world.LinkFunc())

	// --- Infrastructure: lookup service + base station with its database.
	lookup := registry.NewLookup(clock.Real{})
	lookup.Grantor().Start(10 * time.Millisecond)
	defer lookup.Grantor().Stop()
	lookupMux := transport.NewMux()
	lookupSrv := registry.NewServer(lookup, lookupMux, fabric.Node("lookup-1"), clock.Real{})
	defer lookupSrv.Close()
	if _, err := fabric.Serve("lookup-1", lookupMux); err != nil {
		return err
	}

	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		return err
	}
	movementDB := store.NewMemory()
	base, err := core.NewBase(core.BaseConfig{
		Name:     "base-1",
		Addr:     "base-1",
		Caller:   fabric.Node("base-1"),
		Signer:   signer,
		Store:    movementDB,
		LeaseDur: 150 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer base.Close()
	baseMux := transport.NewMux()
	base.ServeOn(baseMux)
	if _, err := fabric.Serve("base-1", baseMux); err != nil {
		return err
	}

	// The hall's policy: monitor and log all hardware activity (Fig. 5).
	if err := base.AddExtension(core.Extension{
		ID:      "hall-1/hw-monitoring",
		Name:    "hw-monitoring",
		Version: 1,
		Advices: []core.AdviceSpec{{
			Name:    "log-motor-commands",
			Kind:    core.KindCallBefore,
			Pattern: "Motor.*(..)", // entries of ANY Motor method (ANYMETHOD + REST)
			Builtin: ext.BMonitor,
			Config:  map[string]string{"mode": "sync", "robot": "robot:1:1"},
		}},
		Caps: []string{"net", "clock"},
	}); err != nil {
		return err
	}
	if _, err := base.WatchLookup(&registry.Client{Caller: fabric.Node("base-1"), Addr: "lookup-1"}, time.Minute); err != nil {
		return err
	}

	// --- Mobile node: plotter + adaptation service.
	weaver := weave.New()
	canvas := plotter.NewCanvas(12, 8)
	plot, err := plotter.New(weaver, canvas)
	if err != nil {
		return err
	}
	services := svc.NewRegistry(weaver)
	plot.RegisterService(services)

	trust := sign.NewTrustStore()
	trust.Trust("hall-1", signer.PublicKey())
	builtins := core.NewBuiltins()
	ext.RegisterAll(builtins)
	receiver, err := core.NewReceiver(core.ReceiverConfig{
		NodeName: "plotter-1",
		Addr:     "plotter-1",
		Weaver:   weaver,
		Trust:    trust,
		Policy:   sandbox.AllowAll(),
		Host:     ext.NewNodeHost(ext.NodeHostConfig{Caller: fabric.Node("plotter-1"), Clock: clock.Real{}}),
		Builtins: builtins,
	})
	if err != nil {
		return err
	}
	receiver.Grantor().Start(10 * time.Millisecond)
	defer receiver.Grantor().Stop()
	nodeMux := transport.NewMux()
	receiver.ServeOn(nodeMux)
	services.ServeOn(nodeMux)
	if _, err := fabric.Serve("plotter-1", nodeMux); err != nil {
		return err
	}

	// --- The robot enters the hall and advertises its adaptation service.
	fmt.Printf("1. plotter-1 enters hall-1 (in range: %v) and advertises its adaptation service\n", world.InArea("plotter-1", "hall-1"))
	stopAdv, err := receiver.Advertise(&registry.Client{Caller: fabric.Node("plotter-1"), Addr: "lookup-1"}, time.Minute, nil)
	if err != nil {
		return err
	}
	defer stopAdv()
	waitFor(func() bool { return receiver.Has("hw-monitoring") })
	fmt.Printf("   adapted: extensions now installed: %v\n", names(receiver))

	// --- A drawing program drives the plotter through its exported service.
	fmt.Println("2. drawing program draws a rectangle through the Plotter service")
	drawer := fabric.Node("drawing-program")
	for _, cmd := range [][3]int64{{1, 1, 0}, {9, 1, 1}, {9, 5, 1}, {1, 5, 1}, {1, 1, 1}} {
		method := "moveTo"
		if cmd[2] == 1 {
			method = "line"
		}
		if _, err := svc.Call(drawer, "plotter-1", plotter.ServiceName, method, "artist", lvm.Int(cmd[0]), lvm.Int(cmd[1])); err != nil {
			return err
		}
	}
	fmt.Print(canvas.Render())

	// --- The base station's database now holds the movement history.
	recs := movementDB.Query(store.Filter{Robot: "robot:1:1"})
	fmt.Printf("3. base-1 database: %d motor actions logged for robot:1:1\n", len(recs))

	// --- Replay the recorded movements onto a second plotter (§4.5,
	// Simulation): the drawing is reproduced without the original program.
	weaver2 := weave.New()
	canvas2 := plotter.NewCanvas(12, 8)
	plot2, err := plotter.New(weaver2, canvas2)
	if err != nil {
		return err
	}
	var cmds []plotter.ReplayCommand
	for _, r := range recs {
		cmds = append(cmds, plotter.ReplayCommand{Device: r.Device, Action: r.Action, Value: r.Value})
	}
	if err := plot2.Replay(cmds); err != nil {
		return err
	}
	fmt.Printf("4. replay onto a fresh plotter reproduces the drawing: %d cells vs %d original\n",
		canvas2.Count(), canvas.Count())
	// The replayed history has served its purpose: prune it.
	if err := movementDB.Compact(recs[len(recs)-1].AtMillis + 1); err != nil {
		return err
	}
	fmt.Printf("   replayed history pruned: %d records left in the database\n", movementDB.Len())

	// --- The robot drives out of the hall; the lease lapses; the extension
	// is withdrawn autonomously.
	fmt.Println("5. plotter-1 drives out of hall-1 at 10 m/s")
	world.OnTransition(func(node string, entered, exited []string) {
		fmt.Printf("   %s left %v\n", node, exited)
	})
	mover := mobility.NewMover(world)
	if err := mover.SetRoute("plotter-1", []mobility.Point{{X: 30, Y: 0}}, 10, false); err != nil {
		return err
	}
	for mover.Moving("plotter-1") {
		mover.Step(time.Second)
	}
	waitFor(func() bool { return !receiver.Has("hw-monitoring") })
	fmt.Printf("   extension revoked; receiver activity: %v\n", eventTrail(receiver))
	return nil
}

func names(r *core.Receiver) []string {
	var out []string
	for _, i := range r.Installed() {
		out = append(out, fmt.Sprintf("%s@v%d", i.Name, i.Version))
	}
	return out
}

func eventTrail(r *core.Receiver) []string {
	var out []string
	for _, a := range r.Activity() {
		out = append(out, a.Event+":"+a.Ext)
	}
	return out
}

func waitFor(cond func() bool) {
	clk := clock.Real{}
	deadline := clk.Now().Add(5 * time.Second)
	for !cond() && clk.Now().Before(deadline) {
		<-clk.After(2 * time.Millisecond)
	}
}
