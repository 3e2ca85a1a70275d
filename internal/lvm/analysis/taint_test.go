package analysis

import (
	"reflect"
	"testing"

	"repro/internal/lvm"
)

// flowsOf analyses src and returns the flows of C.m.
func flowsOf(t *testing.T, src string) []Flow {
	t.Helper()
	p, m := mustAssembleMethod(t, src)
	rep, err := analyzeMethod(p, m)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return rep.Flows
}

func rulesOf(flows []Flow) []string { return FlowRules(flows) }

func TestTaintDirectFlow(t *testing.T) {
	flows := flowsOf(t, `class C
  method void m()
    push "k"
    hostcall store.get 1
    hostcall net.post 1
    pop
    retv
  end
end`)
	if got := rulesOf(flows); !reflect.DeepEqual(got, []string{"store->net"}) {
		t.Fatalf("rules = %v, want [store->net]", got)
	}
	f := flows[0]
	if f.SourceFn != "store.get" || f.SinkFn != "net.post" {
		t.Errorf("flow fns = %s -> %s", f.SourceFn, f.SinkFn)
	}
	// Witness: source site first, sink site last.
	if len(f.Witness) < 2 || f.Witness[0] != (FlowStep{Method: "C.m", PC: 1}) ||
		f.Witness[len(f.Witness)-1] != (FlowStep{Method: "C.m", PC: 2}) {
		t.Errorf("witness = %v", f.Witness)
	}
}

func TestTaintNoFlowWithoutSource(t *testing.T) {
	// clock.now is not a source; store.put receiving it is not a flow.
	flows := flowsOf(t, `class C
  method void m()
    push "k"
    hostcall clock.now 0
    hostcall store.put 2
    pop
    retv
  end
end`)
	if len(flows) != 0 {
		t.Fatalf("flows = %v, want none", flows)
	}
}

func TestTaintUntaintedArgsNoFlow(t *testing.T) {
	// A source runs, but only clean constants reach the sink.
	flows := flowsOf(t, `class C
  method void m()
    push "k"
    hostcall store.get 1
    pop
    push "clean"
    hostcall net.post 1
    pop
    retv
  end
end`)
	if len(flows) != 0 {
		t.Fatalf("flows = %v, want none", flows)
	}
}

func TestTaintThroughLocalAndArith(t *testing.T) {
	flows := flowsOf(t, `class C
  method void m()
    local v
    push "k"
    hostcall store.get 1
    store v
    load v
    push "suffix"
    concat
    hostcall net.post 1
    pop
    retv
  end
end`)
	if got := rulesOf(flows); !reflect.DeepEqual(got, []string{"store->net"}) {
		t.Fatalf("rules = %v, want [store->net]", got)
	}
}

func TestTaintThroughHelperAndField(t *testing.T) {
	// The laundering shape: store.get in a helper, routed through a field,
	// posted by the entry method. Cap inference alone sees {store,net} and is
	// satisfied; only flow analysis connects them.
	flows := flowsOf(t, `class C
  field stash
  method void m()
    load self
    call fetch 0
    pop
    load self
    getfield stash
    hostcall net.post 1
    pop
    retv
  end
  method int fetch()
    load self
    push "secret"
    hostcall store.get 1
    setfield stash
    push 0
    ret
  end
end`)
	if got := rulesOf(flows); !reflect.DeepEqual(got, []string{"store->net"}) {
		t.Fatalf("rules = %v, want [store->net]", got)
	}
	// The witness should name the source in the helper and the sink in m.
	f := flows[0]
	if f.Witness[0].Method != "C.fetch" {
		t.Errorf("witness source = %v, want C.fetch", f.Witness[0])
	}
	if last := f.Witness[len(f.Witness)-1]; last.Method != "C.m" {
		t.Errorf("witness sink = %v, want C.m", last)
	}
}

func TestTaintThroughCallArgsAndReturn(t *testing.T) {
	// Taint passes into a callee as an argument and back out as a return.
	flows := flowsOf(t, `class C
  method void m()
    load self
    push "k"
    hostcall store.get 1
    call relay 1
    hostcall net.post 1
    pop
    retv
  end
  method int relay(int x)
    load x
    ret
  end
end`)
	if got := rulesOf(flows); !reflect.DeepEqual(got, []string{"store->net"}) {
		t.Fatalf("rules = %v, want [store->net]", got)
	}
}

func TestTaintSessionAndDeviceSources(t *testing.T) {
	flows := flowsOf(t, `class C
  method void m()
    hostcall session.caller 0
    hostcall device.read 0
    concat
    hostcall store.put 1
    pop
    retv
  end
end`)
	got := rulesOf(flows)
	want := []string{"device->store", "session->store"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rules = %v, want %v", got, want)
	}
}

func TestTaintBranchJoin(t *testing.T) {
	// Taint on one arm of a branch still reaches the sink after the join.
	flows := flowsOf(t, `class C
  method void m(bool c)
    local v
    load c
    jmpf alt
    push "k"
    hostcall store.get 1
    store v
    jmp use
  alt:
    push "clean"
    store v
  use:
    load v
    hostcall net.post 1
    pop
    retv
  end
end`)
	if got := rulesOf(flows); !reflect.DeepEqual(got, []string{"store->net"}) {
		t.Fatalf("rules = %v, want [store->net]", got)
	}
}

func TestTaintThroughHandler(t *testing.T) {
	// A tainted value thrown as an exception surfaces as the handler's
	// message and flows on to the sink.
	flows := flowsOf(t, `class C
  method void m()
  s:
    push "k"
    hostcall store.get 1
    throw
  e:
  h:
    hostcall net.post 1
    pop
    retv
    handler s e h
  end
end`)
	if got := rulesOf(flows); !reflect.DeepEqual(got, []string{"store->net"}) {
		t.Fatalf("rules = %v, want [store->net]", got)
	}
}

func TestTaintWitnessReachable(t *testing.T) {
	flows := flowsOf(t, `class C
  field stash
  method void m()
    load self
    call fetch 0
    pop
    load self
    getfield stash
    hostcall net.replicate 1
    pop
    retv
  end
  method int fetch()
    load self
    hostcall session.id 0
    setfield stash
    push 0
    ret
  end
end`)
	if len(flows) == 0 {
		t.Fatal("no flows")
	}
	for _, f := range flows {
		for _, st := range f.Witness {
			if st.PC < 0 {
				t.Errorf("witness step %v has negative pc", st)
			}
		}
	}
}

func TestTaintDeterministic(t *testing.T) {
	src := `class C
  field a
  field b
  method void m()
    load self
    hostcall session.caller 0
    setfield a
    load self
    push "k"
    hostcall store.get 1
    setfield b
    load self
    getfield a
    load self
    getfield b
    concat
    hostcall net.post 1
    pop
    hostcall device.poll 0
    hostcall store.put 1
    pop
    retv
  end
end`
	first := flowsOf(t, src)
	for i := 0; i < 3; i++ {
		again := flowsOf(t, src)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d differs:\n%v\nvs\n%v", i, first, again)
		}
	}
	want := []string{"device->store", "session->net", "store->net"}
	if got := rulesOf(first); !reflect.DeepEqual(got, want) {
		t.Fatalf("rules = %v, want %v", got, want)
	}
}

func TestTaintScopedToEntry(t *testing.T) {
	// A flow in an unrelated class is not attributed to C.m.
	src := `class C
  method void m()
    hostcall ctx.method 0
    pop
    retv
  end
end
class D
  method void leak()
    push "k"
    hostcall store.get 1
    hostcall net.post 1
    pop
    retv
  end
end`
	p, err := lvm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if mr := rep.Method("C", "m"); len(mr.Flows) != 0 {
		t.Errorf("C.m flows = %v, want none", mr.Flows)
	}
	if mr := rep.Method("D", "leak"); len(rulesOf(mr.Flows)) != 1 {
		t.Errorf("D.leak flows = %v, want one rule", mr.Flows)
	}
}

func TestFlowRule(t *testing.T) {
	f := Flow{Source: "store", Sink: "net"}
	if f.Rule() != "store->net" {
		t.Errorf("rule = %q", f.Rule())
	}
}
