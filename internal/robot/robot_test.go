package robot

import (
	"errors"
	"testing"

	"repro/internal/aop"
	"repro/internal/lvm"
	"repro/internal/weave"
)

func newControllerWithMotor(t *testing.T) (*weave.Weaver, *Controller, *Motor) {
	t.Helper()
	w := weave.New()
	c := NewController(w, nil)
	m, err := c.AddMotor("x")
	if err != nil {
		t.Fatal(err)
	}
	return w, c, m
}

func TestMotorRotateAccumulates(t *testing.T) {
	_, c, m := newControllerWithMotor(t)
	if err := m.Rotate(30); err != nil {
		t.Fatal(err)
	}
	if err := m.Rotate(-10); err != nil {
		t.Fatal(err)
	}
	if m.Position() != 20 {
		t.Errorf("pos = %d", m.Position())
	}
	trace := c.Trace()
	if len(trace) != 2 || trace[0].Action != "rotate" || trace[1].Value != -10 {
		t.Errorf("trace = %+v", trace)
	}
	if trace[0].Device != "motor:x" {
		t.Errorf("device = %s", trace[0].Device)
	}
}

func TestMotorAdviceInterceptsAndScales(t *testing.T) {
	w, _, m := newControllerWithMotor(t)
	scale := &aop.Aspect{Name: "scale", Advices: []aop.Advice{
		aop.BeforeCall("Motor.rotate(..)", aop.BodyFunc(func(ctx *aop.Context) error {
			ctx.SetArg(0, lvm.Int(ctx.Arg(0).AsInt()*2))
			return nil
		})),
	}}
	if err := w.Insert(scale); err != nil {
		t.Fatal(err)
	}
	if err := m.Rotate(10); err != nil {
		t.Fatal(err)
	}
	if m.Position() != 20 {
		t.Errorf("scaled pos = %d, want 20", m.Position())
	}
}

func TestMotorAdviceVetoes(t *testing.T) {
	w, _, m := newControllerWithMotor(t)
	guard := &aop.Aspect{Name: "guard", Advices: []aop.Advice{
		aop.BeforeCall("Motor.rotate(..)", aop.BodyFunc(func(ctx *aop.Context) error {
			if ctx.Arg(0).AsInt() > 90 {
				ctx.Abort("too far")
			}
			return nil
		})),
	}}
	if err := w.Insert(guard); err != nil {
		t.Fatal(err)
	}
	if err := m.Rotate(45); err != nil {
		t.Fatal(err)
	}
	if err := m.Rotate(120); err == nil {
		t.Fatal("veto did not propagate")
	}
	if m.Position() != 45 {
		t.Errorf("vetoed rotation moved motor: %d", m.Position())
	}
}

func TestFieldSetJoinPointFires(t *testing.T) {
	w, _, m := newControllerWithMotor(t)
	var observed []int64
	qa := &aop.Aspect{Name: "qa", Advices: []aop.Advice{
		aop.OnFieldSet("Motor.pos", aop.BodyFunc(func(ctx *aop.Context) error {
			observed = append(observed, ctx.Arg(0).AsInt())
			return nil
		})),
	}}
	if err := w.Insert(qa); err != nil {
		t.Fatal(err)
	}
	if err := m.Rotate(5); err != nil {
		t.Fatal(err)
	}
	if err := m.Rotate(7); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 2 || observed[0] != 5 || observed[1] != 12 {
		t.Errorf("observed = %v", observed)
	}
}

func TestSensorInterruptFreezes(t *testing.T) {
	w := weave.New()
	c := NewController(w, nil)
	if _, err := c.AddMotor("x"); err != nil {
		t.Fatal(err)
	}
	s, err := c.AddSensor("touch", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Execute(Macro{Motor: "x", Delta: 1}); err != nil {
		t.Fatal(err)
	}
	s.Feed(50) // below threshold
	if c.Frozen() {
		t.Fatal("frozen below threshold")
	}
	s.Feed(150) // obstacle!
	if !c.Frozen() {
		t.Fatal("not frozen at threshold")
	}
	if err := c.Execute(Macro{Motor: "x", Delta: 1}); !errors.Is(err, ErrFrozen) {
		t.Fatalf("frozen execute = %v", err)
	}
	select {
	case ev := <-c.Events():
		if ev.Sensor != "touch" || ev.Value != 150 {
			t.Errorf("event = %+v", ev)
		}
	default:
		t.Fatal("no event delivered")
	}
	c.Resume()
	if err := c.Execute(Macro{Motor: "x", Delta: 1}); err != nil {
		t.Fatalf("after resume: %v", err)
	}
	if s.Read() != 150 {
		t.Errorf("Read = %d", s.Read())
	}
}

func TestDuplicateDevices(t *testing.T) {
	w := weave.New()
	c := NewController(w, nil)
	if _, err := c.AddMotor("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddMotor("x"); err == nil {
		t.Error("duplicate motor accepted")
	}
	if _, err := c.AddSensor("s", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddSensor("s", 1); err == nil {
		t.Error("duplicate sensor accepted")
	}
}

func TestExecuteUnknownMotor(t *testing.T) {
	w := weave.New()
	c := NewController(w, nil)
	if err := c.Execute(Macro{Motor: "ghost", Delta: 1}); err == nil {
		t.Fatal("unknown motor accepted")
	}
}
