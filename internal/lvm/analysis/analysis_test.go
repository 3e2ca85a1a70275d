package analysis

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lvm"
	"repro/internal/sandbox"
)

func buildProg(code []lvm.Instr, consts []lvm.Value, numLocals int) (*lvm.Program, *lvm.Method) {
	p := lvm.NewProgram()
	c := lvm.NewClass("C")
	m := &lvm.Method{Name: "m", Return: "void", NumLocals: numLocals, Consts: consts, Code: code}
	c.AddMethod(m)
	p.AddClass(c)
	return p, m
}

func TestBuildCFGBlocks(t *testing.T) {
	// 0: const, 1: jmpf 4, 2: const, 3: jmp 5, 4: nop, 5: retv
	code := []lvm.Instr{
		{Op: lvm.OpConst, A: 0},
		{Op: lvm.OpJumpFalse, A: 4},
		{Op: lvm.OpConst, A: 0},
		{Op: lvm.OpJump, A: 5},
		{Op: lvm.OpNop},
		{Op: lvm.OpReturnVoid},
	}
	_, m := buildProg(code, []lvm.Value{lvm.Bool(true)}, 0)
	g, err := BuildCFG(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4 (%+v)", len(g.Blocks), g.Blocks)
	}
	// Block 0 = [0,2) branches to blocks at pc 4 and pc 2.
	b0 := g.Blocks[g.BlockOf(0)]
	if len(b0.Succs) != 2 {
		t.Errorf("entry block succs = %v, want 2", b0.Succs)
	}
	if g.BlockOf(4) != g.BlockOf(5)-1 {
		t.Errorf("blockOf(4)=%d blockOf(5)=%d", g.BlockOf(4), g.BlockOf(5))
	}
	if cyc := cyclic(g.succsWithHandlers()); cyc {
		t.Error("acyclic CFG reported cyclic")
	}
	if dead := unreachablePCs(g.Reachable()); len(dead) != 0 {
		t.Errorf("all pcs reachable, got dead %v", dead)
	}
}

func TestCFGRejectsFallOff(t *testing.T) {
	_, m := buildProg([]lvm.Instr{{Op: lvm.OpNop}}, nil, 0)
	if _, err := BuildCFG(m); err == nil || !strings.Contains(err.Error(), "fall off") {
		t.Errorf("want fall-off rejection, got %v", err)
	}
	// A dead non-terminator tail is just as rejected.
	_, m = buildProg([]lvm.Instr{{Op: lvm.OpReturnVoid}, {Op: lvm.OpNop}}, nil, 0)
	if _, err := BuildCFG(m); err == nil {
		t.Error("dead fall-off tail accepted")
	}
}

func TestCFGUnreachable(t *testing.T) {
	// 0: jmp 3, 1: const (dead), 2: pop (dead), 3: retv
	code := []lvm.Instr{
		{Op: lvm.OpJump, A: 3},
		{Op: lvm.OpConst, A: 0},
		{Op: lvm.OpPop},
		{Op: lvm.OpReturnVoid},
	}
	_, m := buildProg(code, []lvm.Value{lvm.Int(1)}, 0)
	g, err := BuildCFG(m)
	if err != nil {
		t.Fatal(err)
	}
	dead := unreachablePCs(g.Reachable())
	if len(dead) != 2 || dead[0] != 1 || dead[1] != 2 {
		t.Errorf("dead = %v, want [1 2]", dead)
	}
}

func TestCFGCycle(t *testing.T) {
	// 0: const, 1: jmpf 3, 2: jmp 0, 3: retv — a loop.
	code := []lvm.Instr{
		{Op: lvm.OpConst, A: 0},
		{Op: lvm.OpJumpFalse, A: 3},
		{Op: lvm.OpJump, A: 0},
		{Op: lvm.OpReturnVoid},
	}
	_, m := buildProg(code, []lvm.Value{lvm.Bool(false)}, 0)
	g, err := BuildCFG(m)
	if err != nil {
		t.Fatal(err)
	}
	if !cyclic(g.succsWithHandlers()) {
		t.Error("loop not detected")
	}
}

func TestCFGHandlerCycle(t *testing.T) {
	// A handler whose target lies inside its own protected range can loop via
	// repeated throws: 0: const, 1: throw, 2: retv; handler [0,2) -> 0.
	code := []lvm.Instr{
		{Op: lvm.OpConst, A: 0},
		{Op: lvm.OpThrow},
		{Op: lvm.OpReturnVoid},
	}
	_, m := buildProg(code, []lvm.Value{lvm.Str("boom")}, 0)
	m.Handlers = []lvm.Handler{{Start: 0, End: 2, Target: 0}}
	g, err := BuildCFG(m)
	if err != nil {
		t.Fatal(err)
	}
	if !cyclic(g.succsWithHandlers()) {
		t.Error("throw/handler loop not detected")
	}
}

func TestCFGDeadHandlerStaysDead(t *testing.T) {
	// The handler protects only dead code, so its target is dead too.
	// 0: jmp 4, 1: const (dead), 2: pop (dead), 3: retv (dead, handler target), 4: retv
	code := []lvm.Instr{
		{Op: lvm.OpJump, A: 4},
		{Op: lvm.OpConst, A: 0},
		{Op: lvm.OpPop},
		{Op: lvm.OpReturnVoid},
		{Op: lvm.OpReturnVoid},
	}
	_, m := buildProg(code, []lvm.Value{lvm.Int(1)}, 0)
	m.Handlers = []lvm.Handler{{Start: 1, End: 3, Target: 3}}
	g, err := BuildCFG(m)
	if err != nil {
		t.Fatal(err)
	}
	dead := unreachablePCs(g.Reachable())
	if len(dead) != 3 {
		t.Errorf("dead = %v, want [1 2 3]", dead)
	}
}

func mustAssembleMethod(t *testing.T, body string) (*lvm.Program, *lvm.Method) {
	t.Helper()
	p, err := lvm.Assemble(body)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := p.Method("C", "m")
	if m == nil {
		t.Fatal("no C.m in source")
	}
	return p, m
}

func TestTypeCheckTable(t *testing.T) {
	tests := []struct {
		name    string
		src     string
		wantErr string // "" = accept
	}{
		{
			name: "good arithmetic",
			src: `class C
  method int m(int a)
    load a
    push 2
    mul
    ret
  end
end`,
		},
		{
			name: "add on strings",
			src: `class C
  method void m()
    push "a"
    push "b"
    add
    pop
    retv
  end
end`,
			wantErr: "add on str",
		},
		{
			name: "order-compare string against int",
			src: `class C
  method void m()
    push "a"
    push 1
    lt
    pop
    retv
  end
end`,
			wantErr: "lt on str",
		},
		{
			name: "eq tolerates mixed kinds",
			src: `class C
  method void m()
    push "a"
    push 1
    eq
    pop
    retv
  end
end`,
		},
		{
			name: "getfield on int",
			src: `class C
  field x
  method void m()
    push 7
    getfield x
    pop
    retv
  end
end`,
			wantErr: "getfield on int",
		},
		{
			name: "call on int receiver",
			src: `class C
  method void m()
    push 7
    call m 0
    pop
    retv
  end
end`,
			wantErr: "call m on int",
		},
		{
			name: "unknown method on known class",
			src: `class C
  method void m()
    new C
    call ghost 0
    pop
    retv
  end
end`,
			wantErr: "no method C.ghost",
		},
		{
			name: "len on int",
			src: `class C
  method void m()
    push 7
    len
    pop
    retv
  end
end`,
			wantErr: "len on int",
		},
		{
			name: "host result flows as any",
			src: `class C
  method void m()
    hostcall clock.now 0
    push 1
    add
    pop
    retv
  end
end`,
		},
		{
			name: "join of int and str is any",
			src: `class C
  method void m(bool c)
    local v
    load c
    jmpf alt
    push 1
    store v
    jmp use
  alt:
    push "s"
    store v
  use:
    load v
    push 1
    add
    pop
    retv
  end
end`,
		},
		{
			name: "join of two strings stays str",
			src: `class C
  method void m(bool c)
    local v
    load c
    jmpf alt
    push "a"
    store v
    jmp use
  alt:
    push "b"
    store v
  use:
    load v
    push 1
    add
    pop
    retv
  end
end`,
			wantErr: "add on str",
		},
		{
			name: "handler entry carries the exception string",
			src: `class C
  method void m()
  s:
    push "boom"
    throw
  e:
  h:
    push "!"
    concat
    pop
    retv
    handler s e h
  end
end`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, m := mustAssembleMethod(t, tt.src)
			_, err := TypeCheck(p, m)
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want error containing %q", tt.wantErr)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("error %q does not contain %q", err, tt.wantErr)
			}
		})
	}
}

func TestTypeCheckRejectsDeadBadOperand(t *testing.T) {
	code := []lvm.Instr{
		{Op: lvm.OpReturnVoid},
		{Op: lvm.OpConst, A: 9},
		{Op: lvm.OpReturnVoid},
	}
	p, m := buildProg(code, nil, 0)
	if _, err := TypeCheck(p, m); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("want dead-operand rejection, got %v", err)
	}
}

// TestAnalyzeRefusesOversizedFrames: a method's frame size comes from its
// declared locals, and the analyzer keeps a frame per instruction. A
// negative count, a huge one, or a frame whose size times the code length
// passes the cell bound is refused before anything is sized from it.
func TestAnalyzeRefusesOversizedFrames(t *testing.T) {
	long := make([]lvm.Instr, 2000)
	for i := range long {
		long[i] = lvm.Instr{Op: lvm.OpNop}
	}
	long[len(long)-1] = lvm.Instr{Op: lvm.OpReturnVoid}
	for _, tc := range []struct {
		name      string
		code      []lvm.Instr
		numLocals int
		wantErr   string
	}{
		{"negative", []lvm.Instr{{Op: lvm.OpReturnVoid}}, -5, "(-5 locals) out of range"},
		{"huge", []lvm.Instr{{Op: lvm.OpReturnVoid}}, 1 << 40, "out of range"},
		{"code times frame", long, 1000, "2000 instructions of 1001 frame slots"},
	} {
		p, _ := buildProg(tc.code, nil, tc.numLocals)
		if _, err := AnalyzeProgram(p); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: AnalyzeProgram = %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
	p, _ := buildProg(long, nil, 500)
	if _, err := AnalyzeProgram(p); err != nil {
		t.Errorf("2000 instructions of 501 frame slots: %v", err)
	}
}

func TestInferCapsTransitive(t *testing.T) {
	src := `class C
  method void m()
    load self
    call helper 0
    pop
    hostcall ctx.method 0
    pop
    retv
  end
  method void helper()
    push "k"
    push "v"
    hostcall store.put 2
    pop
    retv
  end
end`
	p, m := mustAssembleMethod(t, src)
	rep, err := analyzeMethod(p, m)
	if err != nil {
		t.Fatal(err)
	}
	wantCalls := []string{"ctx.method", "store.put"}
	if len(rep.HostCalls) != len(wantCalls) {
		t.Fatalf("host calls = %v, want %v", rep.HostCalls, wantCalls)
	}
	for i := range wantCalls {
		if rep.HostCalls[i] != wantCalls[i] {
			t.Errorf("host calls = %v, want %v", rep.HostCalls, wantCalls)
		}
	}
	wantCaps := []sandbox.Capability{sandbox.CapCtx, sandbox.CapStore}
	if len(rep.Caps) != 2 || rep.Caps[0] != wantCaps[0] || rep.Caps[1] != wantCaps[1] {
		t.Errorf("caps = %v, want %v", rep.Caps, wantCaps)
	}
	// helper alone must not inherit m's ctx call.
	hr, err := analyzeMethod(p, p.Method("C", "helper"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hr.Caps) != 1 || hr.Caps[0] != sandbox.CapStore {
		t.Errorf("helper caps = %v, want [store]", hr.Caps)
	}
}

func TestInferCapsClosedWorldFallback(t *testing.T) {
	// The receiver of the call is a host result (any), so every same-named
	// method in the program is a potential callee.
	src := `class C
  method void m()
    hostcall ctx.result 0
    call leak 0
    pop
    retv
  end
end
class D
  method void leak()
    push "x"
    hostcall net.post 1
    pop
    retv
  end
end`
	p, err := lvm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyzeMethod(p, p.Method("C", "m"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range rep.Caps {
		if c == sandbox.CapNet {
			found = true
		}
	}
	if !found {
		t.Errorf("closed-world call should pick up net from D.leak, got %v", rep.Caps)
	}
}

func TestFuelBounds(t *testing.T) {
	straight := `class C
  method void m()
    push 1
    push 2
    add
    pop
    retv
  end
end`
	p, m := mustAssembleMethod(t, straight)
	rep, err := analyzeMethod(p, m)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fuel.Bounded || rep.Fuel.Steps != len(m.Code) {
		t.Errorf("fuel = %+v, want bounded %d steps", rep.Fuel, len(m.Code))
	}

	loop := `class C
  method void m()
  top:
    push 1
    pop
    jmp top
  end
end`
	p, m = mustAssembleMethod(t, loop)
	rep, err = analyzeMethod(p, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fuel.Bounded {
		t.Errorf("loop reported bounded: %+v", rep.Fuel)
	}

	recursive := `class C
  method void m()
    load self
    call m 0
    pop
    retv
  end
end`
	p, m = mustAssembleMethod(t, recursive)
	rep, err = analyzeMethod(p, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fuel.Bounded {
		t.Errorf("recursion reported bounded: %+v", rep.Fuel)
	}

	calls := `class C
  method void m()
    load self
    call helper 0
    pop
    retv
  end
  method void helper()
    push 1
    pop
    retv
  end
end`
	p, m = mustAssembleMethod(t, calls)
	rep, err = analyzeMethod(p, m)
	if err != nil {
		t.Fatal(err)
	}
	helper := p.Method("C", "helper")
	want := len(m.Code) + len(helper.Code)
	if !rep.Fuel.Bounded || rep.Fuel.Steps != want {
		t.Errorf("fuel = %+v, want bounded %d steps", rep.Fuel, want)
	}
}

func TestAnalyzeProgramWarnsUnreachable(t *testing.T) {
	code := []lvm.Instr{
		{Op: lvm.OpJump, A: 2},
		{Op: lvm.OpNop},
		{Op: lvm.OpReturnVoid},
	}
	p, _ := buildProg(code, nil, 0)
	rep, err := AnalyzeProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "pc 1 unreachable") {
		t.Errorf("warnings = %v", rep.Warnings)
	}
	if mr := rep.Method("C", "m"); mr == nil || len(mr.Unreachable) != 1 {
		t.Errorf("method report missing unreachable pcs: %+v", mr)
	}
}

// analyzeMethod analyses a single method in the context of p: typed
// verification of the whole program is still required (callees must be safe
// too), but the returned report is scoped to what entry can reach.
func analyzeMethod(p *lvm.Program, entry *lvm.Method) (*MethodReport, error) {
	rep, err := AnalyzeProgram(p)
	if err != nil {
		return nil, err
	}
	cls := "?"
	if entry.Class != nil {
		cls = entry.Class.Name
	}
	mr := rep.Methods[cls+"."+entry.Name]
	if mr == nil {
		return nil, fmt.Errorf("analysis: method %s.%s not in program", cls, entry.Name)
	}
	return mr, nil
}
