package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/aop"
	"repro/internal/jit"
	"repro/internal/lvm"
	"repro/internal/sandbox"
	"repro/internal/store"
	"repro/internal/weave"
)

// adviceExecAllocBudget bounds one audit.lasm execution on the proven path:
// the two strings its bytecode builds ("<method>@" and the record) and the
// store's copy of the value.
const adviceExecAllocBudget = 3

// TestAdviceExecAllocBudget pins what one advice execution costs beyond the
// work its body asks for: the engine allocates no frame, no operand stack and
// no argument list, and proven host calls go straight to their functions.
func TestAdviceExecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	kv := store.NewKV()
	host := sandbox.NewHost(lvm.HostMap{
		"clock.now": func(args []lvm.Value) (lvm.Value, error) {
			return lvm.Int(time.Now().UnixMilli()), nil
		},
		"store.put": func(args []lvm.Value) (lvm.Value, error) {
			if err := kv.Put(args[0].String(), []byte(args[1].String())); err != nil {
				return lvm.Nil(), lvm.Throwf("store.put: %v", err)
			}
			return lvm.Bool(true), nil
		},
	}, sandbox.NewPerms(sandbox.CapClock, sandbox.CapStore))
	host.Prove("clock.now", "store.put")
	body, err := CompileAdvice(readAdvice(t, "audit.lasm"), host)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &aop.Context{Kind: aop.MethodEntry, Sig: aop.Signature{Class: "Calls", Method: "helper"}}
	allocs := testing.AllocsPerRun(200, func() {
		if err := body.Exec(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if rec, ok := kv.Get("audit"); !ok || len(rec) < len("helper@") || string(rec[:len("helper@")]) != "helper@" {
		t.Fatalf("audit record = %q, %v", rec, ok)
	}
	if allocs > adviceExecAllocBudget {
		t.Errorf("one audit execution makes %.0f allocs, budget %d", allocs, adviceExecAllocBudget)
	}
}

// TestAdviceViolationNotCatchable: a handler around an ungranted host call
// does not swallow the sandbox's violation; the advice aborts with it.
func TestAdviceViolationNotCatchable(t *testing.T) {
	host := sandbox.NewHost(lvm.HostMap{}, sandbox.NewPerms(sandbox.CapStore))
	body, err := CompileAdvice(`
class Ext
  method void advice()
  s:
    push "x"
    hostcall net.post 1
    pop
    retv
  e:
  h:
    pop
    retv
    handler s e h
  end
end`, host)
	if err != nil {
		t.Fatal(err)
	}
	var v *sandbox.Violation
	if err := body.Exec(&aop.Context{}); !errors.As(err, &v) {
		t.Fatalf("violation was swallowed: err = %v", err)
	}
}

// TestAdviceUnboundedLoopStopsAtDefaultBudget: advice the analysis cannot
// bound runs exactly defaultAdviceMaxSteps instructions, then stops. The loop
// is three instructions, one of them an unproven log.info the gate counts.
func TestAdviceUnboundedLoopStopsAtDefaultBudget(t *testing.T) {
	host := sandbox.NewHost(lvm.HostMap{
		"log.info": func([]lvm.Value) (lvm.Value, error) { return lvm.Nil(), nil },
	}, sandbox.NewPerms())
	body, err := CompileAdvice(`
class Ext
  method void advice()
  loop:
    hostcall log.info 0
    pop
    jmp loop
  end
end`, host)
	if err != nil {
		t.Fatal(err)
	}
	if err := body.Exec(&aop.Context{}); !errors.Is(err, lvm.ErrStepBudget) {
		t.Fatalf("unbounded advice: err = %v, want the step budget", err)
	}
	if got, want := host.CallCount("log.info"), (defaultAdviceMaxSteps+2)/3; got != want {
		t.Errorf("loop made %d host calls, want %d (a budget of %d steps)", got, want, defaultAdviceMaxSteps)
	}
}

// TestAdviceUnprovenCallCounted: a host call admission did not prove keeps
// the sandbox gate and its audit counter; a proven one skips both.
func TestAdviceUnprovenCallCounted(t *testing.T) {
	inner := lvm.HostMap{
		"store.get": func([]lvm.Value) (lvm.Value, error) { return lvm.Str("v"), nil },
		"store.put": func([]lvm.Value) (lvm.Value, error) { return lvm.Bool(true), nil },
	}
	host := sandbox.NewHost(inner, sandbox.NewPerms(sandbox.CapStore))
	host.Prove("store.put")
	body, err := CompileAdvice(`
class Ext
  method void advice()
    push "k"
    hostcall store.get 1
    pop
    push "k"
    push "v"
    hostcall store.put 2
    pop
    retv
  end
end`, host)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := body.Exec(&aop.Context{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := host.CallCount("store.get"); got != 3 {
		t.Errorf("unproven store.get counted %d times, want 3", got)
	}
	if got := host.CallCount("store.put"); got != 0 {
		t.Errorf("proven store.put counted %d times, want 0", got)
	}
}

// TestAdviceArgumentsSurviveCall: an LVM call hands its arguments to the
// join point as a view of the caller's operand stack. An entry advice's
// ctx.setarg reaches the callee, and an exit advice still reads the
// arguments intact after the callee overwrote its own parameter and made a
// nested call of its own.
func TestAdviceArgumentsSurviveCall(t *testing.T) {
	prog := lvm.MustAssemble(`
class App
  field seen
  method int f(int x)
    load x
    push 100
    add
    store x
    load x
    setself seen
    load self
    push 7
    push 8
    call g 2
    pop
    load x
    ret
  end
  method int g(int a, int b)
    load a
    load b
    add
    ret
  end
  method int run()
    push 11
    load self
    push 1
    call f 1
    add
    ret
  end
end`)
	setArg, err := CompileAdvice(`
class Ext
  method void advice()
    push 0
    push 5
    hostcall ctx.setarg 2
    pop
    retv
  end
end`, nil)
	if err != nil {
		t.Fatal(err)
	}
	argAsResult, err := CompileAdvice(`
class Ext
  method void advice()
    push 0
    hostcall ctx.arg 1
    hostcall ctx.setresult 1
    pop
    retv
  end
end`, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := weave.New()
	if err := w.Insert(&aop.Aspect{Name: "args", Advices: []aop.Advice{
		aop.BeforeCall("App.f(..)", setArg),
		{When: aop.After, Cut: aop.Cut(aop.MethodExit, "App.f(..)"), Body: argAsResult},
	}}); err != nil {
		t.Fatal(err)
	}
	m := jit.NewMachine(prog, w, nil)
	app := prog.Class("App").New()
	v, err := m.Call("App", "run", app)
	if err != nil {
		t.Fatal(err)
	}
	if seen, _ := app.FieldByName("seen"); seen.I != 105 {
		t.Errorf("callee saw x = %d, want 5 (set by the entry advice)", seen.I-100)
	}
	if v.I != 16 {
		t.Errorf("run() = %d, want 16: 11 below the call plus the argument 5 as the exit advice read it", v.I)
	}
}
