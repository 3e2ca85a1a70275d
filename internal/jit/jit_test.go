package jit

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/aop"
	"repro/internal/lvm"
	"repro/internal/sandbox"
	"repro/internal/weave"
)

const robotSrc = `
class Motor
  field pos
  field id
  method void rotate(int deg)
    getself pos
    load deg
    add
    setself pos
  end
  method int position()
    getself pos
    ret
  end
  method void reset()
    push 0
    setself pos
  end
end
class Robot
  field arm
  method void init()
    new Motor
    setself arm
    getself arm
    push 0
    setfield Motor.pos
  end
  method void moveArm(int deg)
    getself arm
    load deg
    call rotate 1
    pop
  end
  method int armPos()
    getself arm
    call position 0
    ret
  end
end
class Math
  method int sumTo(int n)
    local acc
    local i
    push 0
    store acc
    push 1
    store i
  loop:
    load i
    load n
    le
    jmpf done
    load acc
    load i
    add
    store acc
    load i
    push 1
    add
    store i
    jmp loop
  done:
    load acc
    ret
  end
  method int safeDiv(int a, int b)
  s:
    load a
    load b
    div
    ret
  e:
  h:
    pop
    push -1
    ret
    handler s e h
  end
end`

func newRobotMachine(t *testing.T, w *weave.Weaver) *Machine {
	t.Helper()
	prog := lvm.MustAssemble(robotSrc)
	return NewMachine(prog, w, nil)
}

func TestCompiledMatchesInterpreter(t *testing.T) {
	prog := lvm.MustAssemble(robotSrc)
	m := NewMachine(prog, nil, nil)
	in := lvm.NewInterp(prog, nil)
	meth := prog.Method("Math", "sumTo")
	self := prog.Class("Math").New()
	if err := quick.Check(func(n uint8) bool {
		a, err1 := m.Invoke(meth, self, []lvm.Value{lvm.Int(int64(n))})
		b, err2 := in.Invoke(meth, self, []lvm.Value{lvm.Int(int64(n))})
		return err1 == nil && err2 == nil && a.Equal(b)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompiledObjectsAndCalls(t *testing.T) {
	m := newRobotMachine(t, nil)
	robot := m.Prog.Class("Robot").New()
	if _, err := m.Call("Robot", "init", robot); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("Robot", "moveArm", robot, lvm.Int(30)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("Robot", "moveArm", robot, lvm.Int(-10)); err != nil {
		t.Fatal(err)
	}
	v, err := m.Call("Robot", "armPos", robot)
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 20 {
		t.Errorf("armPos = %d, want 20", v.I)
	}
}

func TestCompiledExceptionHandling(t *testing.T) {
	m := newRobotMachine(t, nil)
	v, err := m.Call("Math", "safeDiv", nil, lvm.Int(10), lvm.Int(0))
	if err != nil || v.I != -1 {
		t.Fatalf("safeDiv(10,0) = %v, %v", v, err)
	}
	v, err = m.Call("Math", "safeDiv", nil, lvm.Int(10), lvm.Int(5))
	if err != nil || v.I != 2 {
		t.Fatalf("safeDiv(10,5) = %v, %v", v, err)
	}
}

func TestCompileAllRegistersSites(t *testing.T) {
	w := weave.New()
	m := newRobotMachine(t, w)
	n, err := m.CompileAll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Errorf("compiled %d methods, want 8", n)
	}
	// 8 methods × (entry+exit+throw) plus one handler site for safeDiv plus
	// field sites for every getself/setself/getfield/setfield instruction.
	if w.SiteCount() < 8*3+1 {
		t.Errorf("SiteCount = %d, want at least %d", w.SiteCount(), 8*3+1)
	}
}

func TestMethodEntryAdviceFires(t *testing.T) {
	w := weave.New()
	m := newRobotMachine(t, w)
	var calls []string
	a := &aop.Aspect{Name: "monitor", Advices: []aop.Advice{
		aop.BeforeCall("Motor.*(..)", aop.BodyFunc(func(ctx *aop.Context) error {
			calls = append(calls, ctx.Sig.Method)
			return nil
		})),
	}}
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	robot := m.Prog.Class("Robot").New()
	if _, err := m.Call("Robot", "init", robot); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("Robot", "moveArm", robot, lvm.Int(5)); err != nil {
		t.Fatal(err)
	}
	if strings.Join(calls, ",") != "rotate" {
		t.Errorf("intercepted = %v, want [rotate]", calls)
	}
}

func TestAdviceCanVetoCall(t *testing.T) {
	w := weave.New()
	m := newRobotMachine(t, w)
	a := &aop.Aspect{Name: "guard", Advices: []aop.Advice{
		aop.BeforeCall("Motor.rotate(..)", aop.BodyFunc(func(ctx *aop.Context) error {
			if ctx.Arg(0).I > 90 {
				ctx.Abortf("rotation %d exceeds limit", ctx.Arg(0).I)
			}
			return nil
		})),
	}}
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	robot := m.Prog.Class("Robot").New()
	if _, err := m.Call("Robot", "init", robot); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("Robot", "moveArm", robot, lvm.Int(45)); err != nil {
		t.Fatal(err)
	}
	_, err := m.Call("Robot", "moveArm", robot, lvm.Int(120))
	var thrown *lvm.Thrown
	if !errors.As(err, &thrown) || !strings.Contains(thrown.Msg, "exceeds limit") {
		t.Fatalf("want veto exception, got %v", err)
	}
	// Vetoed call must not have moved the arm.
	v, err := m.Call("Robot", "armPos", robot)
	if err != nil || v.I != 45 {
		t.Fatalf("armPos = %v, %v; want 45", v, err)
	}
}

func TestAdviceRewritesArguments(t *testing.T) {
	w := weave.New()
	m := newRobotMachine(t, w)
	// Scale all rotations by 2 — the paper's "replication at a different
	// scale" use case.
	a := &aop.Aspect{Name: "scale", Advices: []aop.Advice{
		aop.BeforeCall("Motor.rotate(..)", aop.BodyFunc(func(ctx *aop.Context) error {
			ctx.SetArg(0, lvm.Int(ctx.Arg(0).I*2))
			return nil
		})),
	}}
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	robot := m.Prog.Class("Robot").New()
	if _, err := m.Call("Robot", "init", robot); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("Robot", "moveArm", robot, lvm.Int(10)); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Call("Robot", "armPos", robot)
	if v.I != 20 {
		t.Errorf("armPos = %d, want 20 (scaled)", v.I)
	}
}

func TestMethodExitAdviceSeesAndRewritesResult(t *testing.T) {
	w := weave.New()
	m := newRobotMachine(t, w)
	a := &aop.Aspect{Name: "clamp", Advices: []aop.Advice{
		{When: aop.After, Cut: aop.Cut(aop.MethodExit, "int Math.sumTo(..)"), Body: aop.BodyFunc(func(ctx *aop.Context) error {
			if ctx.Result.I > 100 {
				ctx.SetResult(lvm.Int(100))
			}
			return nil
		})},
	}}
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	v, err := m.Call("Math", "sumTo", nil, lvm.Int(5))
	if err != nil || v.I != 15 {
		t.Fatalf("sumTo(5) = %v, %v", v, err)
	}
	v, err = m.Call("Math", "sumTo", nil, lvm.Int(100))
	if err != nil || v.I != 100 {
		t.Fatalf("sumTo(100) = %v, %v; want clamped 100", v, err)
	}
}

func TestFieldSetAdvice(t *testing.T) {
	w := weave.New()
	m := newRobotMachine(t, w)
	var observed []int64
	// The quality-assurance extension of §3.3: log every change to the
	// robot's state (*).
	a := &aop.Aspect{Name: "qa", Advices: []aop.Advice{
		aop.OnFieldSet("Motor.pos", aop.BodyFunc(func(ctx *aop.Context) error {
			observed = append(observed, ctx.Arg(0).I)
			return nil
		})),
	}}
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	motor := m.Prog.Class("Motor").New()
	if _, err := m.Call("Motor", "reset", motor); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("Motor", "rotate", motor, lvm.Int(15)); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 2 || observed[0] != 0 || observed[1] != 15 {
		t.Errorf("observed = %v, want [0 15]", observed)
	}
}

func TestFieldGetAdviceRewrites(t *testing.T) {
	w := weave.New()
	m := newRobotMachine(t, w)
	a := &aop.Aspect{Name: "spoof", Advices: []aop.Advice{
		{When: aop.After, Cut: aop.Cut(aop.FieldGet, "Motor.pos"), Body: aop.BodyFunc(func(ctx *aop.Context) error {
			ctx.SetResult(lvm.Int(999))
			return nil
		})},
	}}
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	motor := m.Prog.Class("Motor").New()
	v, err := m.Call("Motor", "position", motor)
	if err != nil || v.I != 999 {
		t.Fatalf("position = %v, %v; want spoofed 999", v, err)
	}
}

func TestExceptionThrowAdvice(t *testing.T) {
	w := weave.New()
	m := newRobotMachine(t, w)
	var thrownMsgs, handledMsgs []string
	a := &aop.Aspect{Name: "exmon", Advices: []aop.Advice{
		{When: aop.Before, Cut: aop.Cut(aop.ExceptionThrow, "Math.*(..)"), Body: aop.BodyFunc(func(ctx *aop.Context) error {
			thrownMsgs = append(thrownMsgs, ctx.ErrMsg)
			return nil
		})},
		{When: aop.Before, Cut: aop.Cut(aop.ExceptionHandler, "Math.*(..)"), Body: aop.BodyFunc(func(ctx *aop.Context) error {
			handledMsgs = append(handledMsgs, ctx.ErrMsg)
			return nil
		})},
	}}
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("Math", "safeDiv", nil, lvm.Int(1), lvm.Int(0)); err != nil {
		t.Fatal(err)
	}
	if len(thrownMsgs) != 1 || !strings.Contains(thrownMsgs[0], "divide by zero") {
		t.Errorf("throw advice saw %v", thrownMsgs)
	}
	if len(handledMsgs) != 1 {
		t.Errorf("handler advice saw %v", handledMsgs)
	}
}

func TestWithdrawRestoresBehaviour(t *testing.T) {
	w := weave.New()
	m := newRobotMachine(t, w)
	count := 0
	a := &aop.Aspect{Name: "c", Advices: []aop.Advice{
		aop.BeforeCall("Math.*(..)", aop.BodyFunc(func(*aop.Context) error {
			count++
			return nil
		})),
	}}
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("Math", "sumTo", nil, lvm.Int(3)); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d", count)
	}
	if err := w.Withdraw(context.Background(), "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("Math", "sumTo", nil, lvm.Int(3)); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("advice ran after withdrawal: count = %d", count)
	}
}

func TestStepBudgetCompiled(t *testing.T) {
	prog := lvm.MustAssemble(`
class App
  method void spin()
  loop:
    jmp loop
  end
end`)
	m := NewMachine(prog, nil, nil)
	m.MaxSteps = 500
	_, err := m.Call("App", "spin", nil)
	if !errors.Is(err, lvm.ErrStepBudget) {
		t.Fatalf("want step budget error, got %v", err)
	}
}

func TestRecursionDepthCompiled(t *testing.T) {
	prog := lvm.MustAssemble(`
class App
  method void rec()
    load self
    call rec 0
    pop
  end
end`)
	m := NewMachine(prog, nil, nil)
	_, err := m.Call("App", "rec", nil)
	if !errors.Is(err, lvm.ErrStackDepth) {
		t.Fatalf("want stack depth error, got %v", err)
	}
}

func TestHostCallCompiled(t *testing.T) {
	prog := lvm.MustAssemble(`
class App
  method int probe(int x)
    load x
    hostcall triple 1
    ret
  end
end`)
	host := lvm.HostMap{"triple": func(args []lvm.Value) (lvm.Value, error) {
		return lvm.Int(args[0].I * 3), nil
	}}
	m := NewMachine(prog, nil, host)
	v, err := m.Call("App", "probe", nil, lvm.Int(7))
	if err != nil || v.I != 21 {
		t.Fatalf("probe = %v, %v", v, err)
	}
}

func TestUnknownMethodCall(t *testing.T) {
	m := newRobotMachine(t, nil)
	if _, err := m.Call("Robot", "fly", nil); err == nil {
		t.Fatal("want error for unknown method")
	}
}

func TestHostCallCompiledPrecheckedFastPath(t *testing.T) {
	prog := lvm.MustAssemble(`
class App
  method int probe()
    push "k"
    hostcall store.put 1
    ret
  end
end`)
	inner := lvm.HostMap{"store.put": func(args []lvm.Value) (lvm.Value, error) {
		return lvm.Int(42), nil
	}}
	gated := sandbox.NewHost(inner, sandbox.NewPerms(sandbox.CapStore))
	gated.Prove("store.put")
	m := NewMachine(prog, nil, gated)
	v, err := m.Call("App", "probe", nil)
	if err != nil || v.I != 42 {
		t.Fatalf("probe = %v, %v", v, err)
	}
	// The compiled closure bound the inner host directly: the sandbox's
	// checked-path counter never moved.
	if gated.CallCount("store.put") != 0 {
		t.Error("compiled dispatch took the checked path for a proven call")
	}
}

func TestHostCallCompiledUnprovenStaysChecked(t *testing.T) {
	prog := lvm.MustAssemble(`
class App
  method int probe()
    push "k"
    hostcall store.put 1
    ret
  end
end`)
	inner := lvm.HostMap{"store.put": func(args []lvm.Value) (lvm.Value, error) {
		return lvm.Int(7), nil
	}}
	gated := sandbox.NewHost(inner, sandbox.NewPerms(sandbox.CapStore))
	m := NewMachine(prog, nil, gated)
	if _, err := m.Call("App", "probe", nil); err != nil {
		t.Fatal(err)
	}
	if gated.CallCount("store.put") != 1 {
		t.Error("unproven call must go through the capability gate")
	}
}
