package jit

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/aop"
	"repro/internal/lvm"
	"repro/internal/weave"
)

// TestCompiledOpcodeCoverage runs a program exercising every opcode family
// through the compiled path and checks the results against expectations.
func TestCompiledOpcodeCoverage(t *testing.T) {
	prog := lvm.MustAssemble(`
class Ops
  field tag
  method bool logic(bool a, bool b)
    load a
    load b
    and
    load a
    load b
    or
    and
    load a
    not
    or
    ret
  end
  method int negmod(int a, int b)
    load a
    neg
    load b
    mod
    ret
  end
  method str describe(int n)
    push "n="
    load n
    concat
    dup
    len
    pop
    ret
  end
  method int strops(str s)
    load s
    len
    ret
  end
  method obj make()
    new Ops
    dup
    push "made"
    setfield Ops.tag
    ret
  end
  method str readTag()
    load self
    call make 0
    getfield Ops.tag
    ret
  end
  method bool cmp(int a, int b)
    load a
    load b
    ge
    load a
    load b
    ne
    and
    ret
  end
  method bool strcmp(str a, str b)
    load a
    load b
    lt
    ret
  end
end`)
	m := NewMachine(prog, weave.New(), nil) // hooks planted, nothing woven
	tests := []struct {
		method string
		args   []lvm.Value
		want   lvm.Value
	}{
		{"logic", []lvm.Value{lvm.Bool(true), lvm.Bool(false)}, lvm.Bool(false)},
		{"logic", []lvm.Value{lvm.Bool(true), lvm.Bool(true)}, lvm.Bool(true)},
		{"negmod", []lvm.Value{lvm.Int(-17), lvm.Int(5)}, lvm.Int(2)},
		{"describe", []lvm.Value{lvm.Int(42)}, lvm.Str("n=42")},
		{"strops", []lvm.Value{lvm.Str("hello")}, lvm.Int(5)},
		{"readTag", nil, lvm.Str("made")},
		{"cmp", []lvm.Value{lvm.Int(5), lvm.Int(3)}, lvm.Bool(true)},
		{"cmp", []lvm.Value{lvm.Int(3), lvm.Int(3)}, lvm.Bool(false)},
		{"strcmp", []lvm.Value{lvm.Str("a"), lvm.Str("b")}, lvm.Bool(true)},
	}
	for _, tt := range tests {
		got, err := m.Call("Ops", tt.method, nil, tt.args...)
		if err != nil {
			t.Fatalf("%s: %v", tt.method, err)
		}
		if !got.Equal(tt.want) {
			t.Errorf("%s(%v) = %v, want %v", tt.method, tt.args, got, tt.want)
		}
	}
}

func TestCompiledRuntimeErrors(t *testing.T) {
	prog := lvm.MustAssemble(`
class Bad
  field f
  method void callOnInt()
    push 1
    call anything 0
    pop
  end
  method void getfieldOnInt()
    push 1
    getfield Bad.f
    pop
  end
  method void setfieldOnInt()
    push 1
    push 2
    setfield Bad.f
  end
  method void lenOnInt()
    push 1
    len
    pop
  end
  method void noSuchMethod()
    load self
    call ghost 0
    pop
  end
end`)
	m := NewMachine(prog, nil, nil)
	for _, method := range []string{"callOnInt", "getfieldOnInt", "setfieldOnInt", "lenOnInt", "noSuchMethod"} {
		_, err := m.Call("Bad", method, nil)
		var thrown *lvm.Thrown
		if !errors.As(err, &thrown) {
			t.Errorf("%s: want thrown error, got %v", method, err)
		}
	}
}

func TestWeaveDuringExecution(t *testing.T) {
	// An aspect inserted between calls affects the next call without
	// recompilation — the run-time adaptation property of Fig. 1.
	prog := lvm.MustAssemble(`
class App
  method int val()
    push 10
    ret
  end
end`)
	w := weave.New()
	m := NewMachine(prog, w, nil)
	if v, err := m.Call("App", "val", nil); err != nil || v.I != 10 {
		t.Fatalf("before: %v %v", v, err)
	}
	a := &aop.Aspect{Name: "boost", Advices: []aop.Advice{
		aop.AfterCall("App.val(..)", aop.BodyFunc(func(ctx *aop.Context) error {
			ctx.SetResult(lvm.Int(ctx.Result.I * 10))
			return nil
		})),
	}}
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Call("App", "val", nil); err != nil || v.I != 100 {
		t.Fatalf("woven: %v %v", v, err)
	}
	if err := w.Withdraw(context.Background(), "boost"); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Call("App", "val", nil); err != nil || v.I != 10 {
		t.Fatalf("after withdraw: %v %v", v, err)
	}
}

func TestConcurrentExecutionAndWeaving(t *testing.T) {
	prog := lvm.MustAssemble(`
class App
  method int work(int n)
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
end`)
	w := weave.New()
	m := NewMachine(prog, w, nil)
	if _, err := m.CompileAll(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := m.Call("App", "work", nil, lvm.Int(50))
				if err != nil {
					t.Errorf("work: %v", err)
					return
				}
				if v.I != 1275 {
					t.Errorf("work = %d", v.I)
					return
				}
			}
		}()
	}
	// Weave and unweave concurrently with execution.
	body := aop.BodyFunc(func(*aop.Context) error { return nil })
	for i := 0; i < 100; i++ {
		a := &aop.Aspect{Name: "a", Advices: []aop.Advice{aop.BeforeCall("App.*(..)", body)}}
		if err := w.Insert(a); err != nil {
			t.Fatal(err)
		}
		if err := w.Withdraw(context.Background(), "a"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestThrowAdviceVetoOverridesHandler(t *testing.T) {
	// A throw-site advice returning an error aborts even catchable
	// exceptions (e.g. a security monitor that must not be silenced).
	prog := lvm.MustAssemble(`
class App
  method int f()
  s:
    push "oops"
    throw
  e:
  h:
    pop
    push 1
    ret
    handler s e h
  end
end`)
	w := weave.New()
	m := NewMachine(prog, w, nil)
	// Without advice, the handler catches.
	if v, err := m.Call("App", "f", nil); err != nil || v.I != 1 {
		t.Fatalf("unwoven: %v %v", v, err)
	}
	a := &aop.Aspect{Name: "exmon", Advices: []aop.Advice{
		aop.OnThrow("App.*(..)", aop.BodyFunc(func(ctx *aop.Context) error {
			return errors.New("security monitor: exception quarantined")
		})),
	}}
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("App", "f", nil); err == nil {
		t.Fatal("throw advice error should abort")
	}
}

func TestSessionStateFlowsEntryToExit(t *testing.T) {
	// Entry and exit advice share one context per invocation (Fig. 2).
	prog := lvm.MustAssemble(`
class App
  method int f(int x)
    load x
    ret
  end
end`)
	w := weave.New()
	m := NewMachine(prog, w, nil)
	var got string
	a := &aop.Aspect{Name: "session", Advices: []aop.Advice{
		aop.BeforeCall("App.*(..)", aop.BodyFunc(func(ctx *aop.Context) error {
			ctx.Put("session.caller", lvm.Str("alice"))
			return nil
		})),
		aop.AfterCall("App.*(..)", aop.BodyFunc(func(ctx *aop.Context) error {
			if v, ok := ctx.Get("session.caller"); ok {
				got = v.S
			}
			return nil
		})),
	}}
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call("App", "f", nil, lvm.Int(1)); err != nil {
		t.Fatal(err)
	}
	if got != "alice" {
		t.Errorf("exit advice saw %q, want alice", got)
	}
}
