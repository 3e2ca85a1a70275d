package task

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/robot"
	"repro/internal/weave"
)

// newRunner returns a runner over a controller with motors x and y.
func newRunner(t *testing.T) (c *robot.Controller, r *Runner, x, y *robot.Motor) {
	t.Helper()
	c = robot.NewController(weave.New(), nil)
	x, err := c.AddMotor("x")
	if err != nil {
		t.Fatal(err)
	}
	if y, err = c.AddMotor("y"); err != nil {
		t.Fatal(err)
	}
	return c, NewRunner(c), x, y
}

func square(n int64) *Task {
	return &Task{Name: "square", Macros: []robot.Macro{
		{Motor: "x", Delta: n},
		{Motor: "y", Delta: n},
		{Motor: "x", Delta: -n},
		{Motor: "y", Delta: -n},
	}}
}

func TestRunTask(t *testing.T) {
	c, r, x, y := newRunner(t)
	if err := r.Run(square(5)); err != nil {
		t.Fatal(err)
	}
	if x.Position() != 0 || y.Position() != 0 {
		t.Errorf("pos = %d, %d", x.Position(), y.Position())
	}
	if len(c.Trace()) != 4 {
		t.Errorf("trace = %d commands", len(c.Trace()))
	}
	if r.running {
		t.Error("running after completion")
	}
}

func TestInterruptAbort(t *testing.T) {
	c, r, _, _ := newRunner(t)
	s, err := c.AddSensor("touch", 1)
	if err != nil {
		t.Fatal(err)
	}
	task := square(3)
	// No OnEvent handler: default abort.
	s.Feed(5) // obstacle appears before the task starts its second macro
	err = r.Run(task)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
}

func TestInterruptContinue(t *testing.T) {
	c, r, _, _ := newRunner(t)
	s, err := c.AddSensor("touch", 1)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	task := square(3)
	task.OnEvent = func(ev robot.SensorEvent) Decision {
		events++
		return Continue
	}
	s.Feed(5)
	if err := r.Run(task); err != nil {
		t.Fatal(err)
	}
	if events != 1 {
		t.Errorf("events = %d", events)
	}
	if len(c.Trace()) != 4 {
		t.Errorf("trace = %d", len(c.Trace()))
	}
}

func TestDirectMode(t *testing.T) {
	_, r, x, _ := newRunner(t)
	if err := r.Direct(robot.Macro{Motor: "x", Delta: 7}); err != nil {
		t.Fatal(err)
	}
	if x.Position() != 7 {
		t.Errorf("pos = %d", x.Position())
	}
}

func TestDirectModeUnfreezes(t *testing.T) {
	c, r, x, _ := newRunner(t)
	s, _ := c.AddSensor("touch", 1)
	s.Feed(5)
	if !c.Frozen() {
		t.Fatal("not frozen")
	}
	// A human in direct mode can recover a robot stuck in a dead end.
	if err := r.Direct(robot.Macro{Motor: "x", Delta: -3}); err != nil {
		t.Fatal(err)
	}
	if x.Position() != -3 {
		t.Errorf("pos = %d", x.Position())
	}
}

func TestOverrideReplacesTask(t *testing.T) {
	c, r, _, _ := newRunner(t)
	long := &Task{Name: "long"}
	for i := 0; i < 50; i++ {
		long.Macros = append(long.Macros, robot.Macro{Motor: "x", Delta: 1})
	}
	// Trigger the override from within the task via a sensor-free trick: the
	// override is scheduled before Run, applied at the first macro boundary.
	if err := r.Run(&Task{Name: "starter", Macros: []robot.Macro{{Motor: "x", Delta: 1}}}); err != nil {
		t.Fatal(err)
	}
	// Override during execution: run in a goroutine-free way by injecting
	// before the second macro — schedule override while running is not
	// possible synchronously, so exercise the API contract instead.
	if err := r.Override(long); err == nil {
		t.Fatal("override with nothing running should fail")
	}
	_ = c
}

func TestOverrideMidTask(t *testing.T) {
	c, r, _, y := newRunner(t)
	s, _ := c.AddSensor("touch", 1)
	replacement := &Task{Name: "retreat", Macros: []robot.Macro{{Motor: "y", Delta: -5}}}
	task := square(2)
	task.OnEvent = func(robot.SensorEvent) Decision {
		// The handler overrides the current task instead of aborting.
		if err := r.Override(replacement); err != nil {
			t.Errorf("override: %v", err)
		}
		return Continue
	}
	s.Feed(5)
	if err := r.Run(task); err != nil {
		t.Fatal(err)
	}
	if y.Position() != -5 {
		t.Errorf("y = %d, want -5 (override executed)", y.Position())
	}
	hist := strings.Join(r.History(), ",")
	if hist != "square,override:retreat" {
		t.Errorf("history = %s", hist)
	}
}

func TestRunWhileRunning(t *testing.T) {
	_, r, _, _ := newRunner(t)
	blocked := &Task{Name: "b", Macros: []robot.Macro{{Motor: "x", Delta: 1}}}
	// Direct is refused while a task runs; simulate by checking ErrBusy from
	// a task's own event handler.
	c2, r2, _, _ := newRunner(t)
	s, _ := c2.AddSensor("touch", 1)
	tsk := square(1)
	tsk.OnEvent = func(robot.SensorEvent) Decision {
		if err := r2.Direct(robot.Macro{Motor: "x", Delta: 1}); !errors.Is(err, ErrBusy) {
			t.Errorf("direct during task = %v", err)
		}
		if err := r2.Run(blocked); !errors.Is(err, ErrBusy) {
			t.Errorf("run during task = %v", err)
		}
		return Continue
	}
	s.Feed(5)
	if err := r2.Run(tsk); err != nil {
		t.Fatal(err)
	}
	_ = r
}
