// Production hall: the Fig. 2 scenario. A robot exports service m_R; when it
// enters the hall, the base pushes an access-control extension (which
// implicitly brings the session-management extension with it) and a
// quality-assurance extension that persistently logs every state change.
// Calls from authorised clients complete; others end with an exception. The
// hall later evolves its policy: the new version is pushed to the already
// adapted robot. The robot's own layers (Fig. 3a) run beneath the
// adaptation: a bumper sensor interrupts a task, the task layer overrides it
// with a retreat, and an operator parks the arm in direct mode. Finally the
// hall drops quality assurance from its policy, which revokes it at once.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/lvm"
	"repro/internal/robot"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/task"
	"repro/internal/transport"
	"repro/internal/weave"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func accessPolicy(version int, allow string) core.Extension {
	return core.Extension{
		ID:      "hall/access-control",
		Name:    "access-control",
		Version: version,
		Advices: []core.AdviceSpec{{
			Name:    "authorize",
			Kind:    core.KindCallBefore,
			Pattern: "Robot.*(..)",
			Builtin: ext.BAccessControl,
			Config:  map[string]string{"allow": allow},
		}},
		Requires: []string{ext.SessionBundleName}, // implicit session extraction
		Caps:     []string{"session"},
	}
}

func run() error {
	fabric := transport.NewInProc()

	// Base station with the hall database.
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		return err
	}
	db := store.NewMemory()
	base, err := core.NewBase(core.BaseConfig{
		Name: "base-1", Addr: "base-1",
		Caller: fabric.Node("base-1"), Signer: signer, Store: db,
		LeaseDur: time.Second,
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

	// The hall's policy set: access control + quality logging of state (*).
	if err := base.AddExtension(accessPolicy(1, "operator")); err != nil {
		return err
	}
	if err := base.AddExtension(core.Extension{
		ID:      "hall/quality-assurance",
		Name:    "quality-assurance",
		Version: 1,
		Advices: []core.AdviceSpec{{
			Name:    "log-state-changes",
			Kind:    core.KindFieldSet,
			Pattern: "Motor.pos",
			Builtin: ext.BMonitor,
			Config:  map[string]string{"mode": "sync"},
		}},
		Caps: []string{"net", "clock"},
	}); err != nil {
		return err
	}

	// The robot node: a one-armed robot exporting Robot.moveArm as m_R. Each
	// call runs as a one-macro task on the robot's task layer (Fig. 3a), which
	// hands the macro to the device layer.
	weaver := weave.New()
	ctrl := robot.NewController(weaver, nil)
	arm, err := ctrl.AddMotor("arm")
	if err != nil {
		return err
	}
	tasks := task.NewRunner(ctrl)
	services := svc.NewRegistry(weaver)
	services.Register("Robot", "moveArm", []string{"int"}, "int", func(args []lvm.Value) (lvm.Value, error) {
		move := &task.Task{Name: "moveArm", Macros: []robot.Macro{{Motor: "arm", Delta: args[0].AsInt()}}}
		if err := tasks.Run(move); err != nil {
			return lvm.Nil(), err
		}
		return lvm.Int(arm.Position()), nil
	})

	trust := sign.NewTrustStore()
	trust.Trust("hall-1", signer.PublicKey())
	builtins := core.NewBuiltins()
	ext.RegisterAll(builtins)
	receiver, err := core.NewReceiver(core.ReceiverConfig{
		NodeName: "robot-R", Addr: "robot-R",
		Weaver: weaver, Trust: trust, Policy: sandbox.AllowAll(),
		Host:     ext.NewNodeHost(ext.NodeHostConfig{Caller: fabric.Node("robot-R"), Clock: clock.Real{}}),
		Builtins: builtins,
	})
	if err != nil {
		return err
	}
	nodeMux := transport.NewMux()
	receiver.ServeOn(nodeMux)
	services.ServeOn(nodeMux)
	if _, err := fabric.Serve("robot-R", nodeMux); err != nil {
		return err
	}

	callArm := func(who string, deg int64) {
		v, err := svc.Call(fabric.Node(who), "robot-R", "Robot", "moveArm", who, lvm.Int(deg))
		if err != nil {
			fmt.Printf("   %-9s moveArm(%3d) -> DENIED (%v)\n", who, deg, err)
			return
		}
		fmt.Printf("   %-9s moveArm(%3d) -> arm at %s\n", who, deg, v)
	}

	fmt.Println("1. before adaptation: anyone can drive the robot")
	callArm("intruder", 15)

	fmt.Println("2. robot enters the hall; base pushes access control (+ implicit session) and QA logging")
	if err := base.AdaptNode("robot-R", "robot-R"); err != nil {
		return err
	}
	fmt.Printf("   installed: %v\n", names(receiver))

	fmt.Println("3. adapted calls (Fig. 2): session -> access control -> m_R -> state logged")
	callArm("operator", 30)
	callArm("intruder", 30)

	fmt.Printf("   QA database: %d state changes logged\n", db.Len())

	fmt.Println("4. policy evolves: visitors are now also authorised (v2 replaces v1)")
	if err := base.ReplaceExtension(accessPolicy(2, "operator,visitor")); err != nil {
		return err
	}
	waitFor(func() bool {
		for _, i := range receiver.Installed() {
			if i.Name == "access-control" && i.Version == 2 {
				return true
			}
		}
		return false
	})
	callArm("visitor", -10)
	callArm("intruder", -10)

	fmt.Println("5. the bumper fires mid-task; the task layer overrides the sweep with a retreat")
	bumper, err := ctrl.AddSensor("bumper", 1)
	if err != nil {
		return err
	}
	sweep := &task.Task{
		Name:   "sweep",
		Macros: []robot.Macro{{Motor: "arm", Delta: 10}, {Motor: "arm", Delta: 10}},
		OnEvent: func(ev robot.SensorEvent) task.Decision {
			fmt.Printf("   sensor %s reads %d: hardware frozen\n", ev.Sensor, bumper.Read())
			if err := tasks.Override(&task.Task{Name: "retreat", Macros: []robot.Macro{{Motor: "arm", Delta: -20}}}); err != nil {
				fmt.Printf("   override refused: %v\n", err)
			}
			return task.Continue
		},
	}
	bumper.Feed(5)
	if err := tasks.Run(sweep); err != nil {
		return err
	}
	fmt.Printf("   task history: %v\n", tasks.History())

	fmt.Println("6. an operator parks the arm in direct mode")
	if err := tasks.Direct(robot.Macro{Motor: "arm", Delta: -arm.Position()}); err != nil {
		return err
	}
	fmt.Printf("   arm at %d; device log holds %d commands\n", arm.Position(), len(ctrl.Trace()))

	fmt.Println("7. the hall drops quality assurance from its policy; the robot loses it")
	if err := base.RemoveExtension("quality-assurance"); err != nil {
		return err
	}
	waitFor(func() bool { return !receiver.Has("quality-assurance") })
	fmt.Printf("   installed: %v\n", names(receiver))

	fmt.Println("8. robot leaves: base releases its leases; extensions are withdrawn")
	base.Release("robot-R")
	receiver.Grantor().Start(10 * time.Millisecond)
	defer receiver.Grantor().Stop()
	waitFor(func() bool { return len(receiver.Installed()) == 0 })
	callArm("intruder", 5)
	return nil
}

func names(r *core.Receiver) []string {
	var out []string
	for _, i := range r.Installed() {
		tag := ""
		if i.System {
			tag = " (implicit)"
		}
		out = append(out, fmt.Sprintf("%s@v%d%s", i.Name, i.Version, tag))
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
