package analysis

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lvm"
)

// fuzzSyms is the symbol pool the fuzzer draws call/hostcall/new operands
// from: known and unknown classes, methods that do and don't exist, and
// host functions across several capability namespaces.
var fuzzSyms = []string{"m", "helper", "ghost", "C", "Ghost", "store.put", "net.post", "ctx.arg", "x"}

// methodFromFuzz decodes an arbitrary byte string into a two-method program:
// each 4-byte group becomes one instruction of C.m, while C.helper is a fixed
// valid callee so OpCall has something real to resolve to. The final byte
// pair, when present, adds an exception handler.
func methodFromFuzz(data []byte) *lvm.Program {
	if len(data) < 4 {
		return nil
	}
	p := lvm.NewProgram()
	c := lvm.NewClass("C")
	helper := &lvm.Method{
		Name:   "helper",
		Return: "void",
		Code:   []lvm.Instr{{Op: lvm.OpReturnVoid}},
	}
	c.AddMethod(helper)

	m := &lvm.Method{
		Name:      "m",
		Return:    "void",
		NumLocals: int(data[0] % 4),
		Consts:    []lvm.Value{lvm.Int(7), lvm.Str("s"), lvm.Bool(true), lvm.Nil()},
	}
	body := data[1:]
	for i := 0; i+4 <= len(body); i += 4 {
		m.Code = append(m.Code, lvm.Instr{
			Op:  lvm.Op(body[i] % 32),
			A:   int(int8(body[i+1])),
			B:   int(int8(body[i+2])),
			Sym: fuzzSyms[int(body[i+3])%len(fuzzSyms)],
		})
	}
	if len(m.Code) == 0 {
		return nil
	}
	if rest := len(body) % 4; rest >= 2 {
		tail := body[len(body)-rest:]
		n := len(m.Code)
		start := int(tail[0]) % n
		m.Handlers = []lvm.Handler{{Start: start, End: start + 1, Target: int(tail[1]) % n}}
	}
	c.AddMethod(m)
	p.AddClass(c)
	return p
}

// checkTaintSoundness asserts the invariants every accepted report's flow set
// must satisfy: re-analysis is deterministic, and every reported flow carries
// a witness whose pcs name reachable instructions in real methods, opening at
// the source host call and closing at the sink host call.
func checkTaintSoundness(t *testing.T, p *lvm.Program, rep *Report) {
	t.Helper()
	rep2, err := AnalyzeProgram(p)
	if err != nil {
		t.Fatalf("re-analysis rejected an accepted program: %v", err)
	}
	for name, mr := range rep.Methods {
		mr2 := rep2.Methods[name]
		if mr2 == nil {
			t.Fatalf("re-analysis lost method %s", name)
		}
		if !reflect.DeepEqual(mr.Flows, mr2.Flows) {
			t.Fatalf("%s: flows not deterministic:\n  first  %v\n  second %v", name, mr.Flows, mr2.Flows)
		}
		if !reflect.DeepEqual(mr.Caps, mr2.Caps) {
			t.Fatalf("%s: caps not deterministic: %v vs %v", name, mr.Caps, mr2.Caps)
		}
		for _, f := range mr.Flows {
			if len(f.Witness) < 2 {
				t.Fatalf("%s: flow %s has witness %v, want at least source and sink steps", name, f.Rule(), f.Witness)
			}
			for _, step := range f.Witness {
				cls, meth, ok := strings.Cut(step.Method, ".")
				if !ok {
					t.Fatalf("%s: witness step %v not of form Class.method", name, step)
				}
				wm := p.Method(cls, meth)
				if wm == nil {
					t.Fatalf("%s: witness step %v names a method missing from the program", name, step)
				}
				if step.PC < 0 || step.PC >= len(wm.Code) {
					t.Fatalf("%s: witness step %v out of range (method has %d instrs)", name, step, len(wm.Code))
				}
				wrep := rep.Methods[step.Method]
				if wrep == nil {
					t.Fatalf("%s: witness step %v names a method with no report", name, step)
				}
				for _, dead := range wrep.Unreachable {
					if dead == step.PC {
						t.Fatalf("%s: witness step %v is unreachable code", name, step)
					}
				}
			}
			src, snk := f.Witness[0], f.Witness[len(f.Witness)-1]
			if ins := instrAt(p, src); ins == nil || ins.Op != lvm.OpHostCall || ins.Sym != f.SourceFn {
				t.Fatalf("%s: flow %s: first witness step %v is not the source host call %s", name, f.Rule(), src, f.SourceFn)
			}
			if ins := instrAt(p, snk); ins == nil || ins.Op != lvm.OpHostCall || ins.Sym != f.SinkFn {
				t.Fatalf("%s: flow %s: last witness step %v is not the sink host call %s", name, f.Rule(), snk, f.SinkFn)
			}
		}
	}
}

func instrAt(p *lvm.Program, step FlowStep) *lvm.Instr {
	cls, meth, ok := strings.Cut(step.Method, ".")
	if !ok {
		return nil
	}
	m := p.Method(cls, meth)
	if m == nil || step.PC < 0 || step.PC >= len(m.Code) {
		return nil
	}
	return &m.Code[step.PC]
}

// checkForwardErrors is the oracle for Forward's recorded errors: after the
// fixpoint it applies every visited pc once more to its final in-state, and
// the first error found that way, pc and text, must be the first error the
// fixpoint recorded.
func checkForwardErrors[S any](t *testing.T, g *CFG, tf Transfer[S]) {
	t.Helper()
	in, seen, errs, err := forward(g, tf)
	if err != nil {
		return // a Merge error ends the run before any state is final
	}
	var recorded, reapplied error
	for pc, e := range errs {
		if e != nil {
			recorded = fmt.Errorf("pc %d: %w", pc, e)
			break
		}
	}
	for pc, visited := range seen {
		if !visited {
			continue
		}
		if _, e := tf.Apply(pc, g.Method.Code[pc], in[pc]); e != nil {
			reapplied = fmt.Errorf("pc %d: %w", pc, e)
			break
		}
	}
	if fmt.Sprint(recorded) != fmt.Sprint(reapplied) {
		t.Fatalf("%s: recorded first error %v, re-applying the fixpoint finds %v", g.Method, recorded, reapplied)
	}
}

// checkForwardInvariant runs checkForwardErrors over every method of p: for
// the typed verifier, and, when p passes it, for the taint analysis over its
// fixpoint world.
func checkForwardInvariant(t *testing.T, p *lvm.Program) {
	t.Helper()
	p.EachMethod(func(m *lvm.Method) {
		if g, err := BuildCFG(m); err == nil {
			checkForwardErrors(t, g, &typeFlow{p: p, m: m})
		}
	})
	a, err := newAnalyzer(p)
	if err != nil {
		return
	}
	w, err := a.taintAnalysis()
	if err != nil {
		return
	}
	for i := range a.methods {
		mi := &a.methods[i]
		checkForwardErrors(t, mi.types.CFG, &taintFlow{w: w, mi: mi})
	}
}

// FuzzAnalyze checks the safety properties of the admission analyzer: it
// never panics on arbitrary bytecode, anything it accepts also passes the
// depth-only lvm.VerifyMethod (analysis is strictly stronger, so an admitted
// extension can never be bounced by the receiver's verifier), the taint
// verdict is sound — deterministic across runs, with every reported flow
// carrying a reachable source-to-sink witness chain — and Forward's recorded
// per-pc errors agree with re-applying its fixpoint.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{0, byte(lvm.OpReturnVoid), 0, 0, 0})
	f.Add([]byte{1, byte(lvm.OpConst), 0, 0, 0, byte(lvm.OpPop), 0, 0, 0, byte(lvm.OpReturnVoid), 0, 0, 0})
	f.Add([]byte{2, byte(lvm.OpHostCall), 0, 1, 5, byte(lvm.OpPop), 0, 0, 0, byte(lvm.OpReturnVoid), 0, 0, 0})
	f.Add([]byte{0, byte(lvm.OpLoad), 0, 0, 0, byte(lvm.OpCall), 0, 0, 1, byte(lvm.OpPop), 0, 0, 0, byte(lvm.OpReturnVoid), 0, 0, 0, 9, 3})
	f.Add([]byte{0, byte(lvm.OpJump), 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := methodFromFuzz(data)
		if p == nil {
			return
		}
		checkForwardInvariant(t, p)
		rep, err := AnalyzeProgram(p)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		if rep.Method("C", "m") == nil {
			t.Fatal("accepted program missing method report")
		}
		if err := lvm.VerifyProgram(p); err != nil {
			t.Fatalf("analysis accepted what VerifyMethod rejects: %v", err)
		}
		checkTaintSoundness(t, p, rep)
	})
}

// taintSyms biases the FuzzTaint symbol pool toward taint sources
// (store.get, session.*, device.*) and sinks (net.post, net.replicate,
// store.put) so the fuzzer actually exercises flow construction, plus the
// call/field symbols needed for interprocedural and field laundering.
var taintSyms = []string{
	"m", "fetch", "stash", "C",
	"store.get", "session.id", "device.location",
	"net.post", "net.replicate", "store.put", "ctx.method",
}

// taintProgramFromFuzz decodes bytes into a program shaped like the flow
// corpus: class C has a field "stash" for laundering, a fixed C.fetch that
// returns a freshly tainted value (hostcall store.get), and a fuzzed C.m.
func taintProgramFromFuzz(data []byte) *lvm.Program {
	if len(data) < 4 {
		return nil
	}
	p := lvm.NewProgram()
	c := lvm.NewClass("C")
	c.AddField("stash")
	fetch := &lvm.Method{
		Name:   "fetch",
		Return: "val",
		Consts: []lvm.Value{lvm.Str("k")},
		Code: []lvm.Instr{
			{Op: lvm.OpConst, A: 0},
			{Op: lvm.OpHostCall, B: 1, Sym: "store.get"},
			{Op: lvm.OpReturn},
		},
	}
	c.AddMethod(fetch)

	m := &lvm.Method{
		Name:      "m",
		Return:    "void",
		NumLocals: int(data[0] % 4),
		Consts:    []lvm.Value{lvm.Int(7), lvm.Str("s"), lvm.Bool(true), lvm.Nil()},
	}
	body := data[1:]
	for i := 0; i+4 <= len(body); i += 4 {
		m.Code = append(m.Code, lvm.Instr{
			Op:  lvm.Op(body[i] % 32),
			A:   int(int8(body[i+1])),
			B:   int(int8(body[i+2])),
			Sym: taintSyms[int(body[i+3])%len(taintSyms)],
		})
	}
	if len(m.Code) == 0 {
		return nil
	}
	if rest := len(body) % 4; rest >= 2 {
		tail := body[len(body)-rest:]
		n := len(m.Code)
		start := int(tail[0]) % n
		m.Handlers = []lvm.Handler{{Start: start, End: start + 1, Target: int(tail[1]) % n}}
	}
	c.AddMethod(m)
	p.AddClass(c)
	return p
}

// FuzzTaint drives the taint analysis with flow-shaped programs: direct
// source-to-sink hand-offs, interprocedural flows through C.fetch, field
// laundering through C.stash, and branch/handler joins. The property is the
// same soundness contract FuzzAnalyze checks, but the biased symbol pool
// makes the fuzzer construct real flows instead of rejecting early.
func FuzzTaint(f *testing.F) {
	hostcall := func(nargs, sym byte) []byte { return []byte{byte(lvm.OpHostCall), 0, nargs, sym} }
	ins := func(op lvm.Op, a, b, sym byte) []byte { return []byte{byte(op), a, b, sym} }
	seed := func(locals byte, groups ...[]byte) []byte {
		out := []byte{locals}
		for _, g := range groups {
			out = append(out, g...)
		}
		return out
	}
	// Direct flow: tainted := store.get(k); net.post(tainted).
	f.Add(seed(0,
		ins(lvm.OpConst, 1, 0, 0),
		hostcall(1, 4), // store.get
		hostcall(1, 7), // net.post
		ins(lvm.OpPop, 0, 0, 0),
		ins(lvm.OpReturnVoid, 0, 0, 0),
	))
	// Interprocedural: self.fetch() result replicated.
	f.Add(seed(0,
		ins(lvm.OpGetSelf, 0, 0, 0),
		ins(lvm.OpCall, 0, 0, 1), // call fetch
		hostcall(1, 8),           // net.replicate
		ins(lvm.OpPop, 0, 0, 0),
		ins(lvm.OpReturnVoid, 0, 0, 0),
	))
	// Field laundering: stash := session.id(); store.put(stash).
	f.Add(seed(0,
		ins(lvm.OpGetSelf, 0, 0, 0),
		hostcall(0, 5), // session.id
		ins(lvm.OpSetField, 0, 0, 2),
		ins(lvm.OpGetSelf, 0, 0, 0),
		ins(lvm.OpGetField, 0, 0, 2),
		hostcall(1, 9), // store.put
		ins(lvm.OpPop, 0, 0, 0),
		ins(lvm.OpReturnVoid, 0, 0, 0),
	))
	// Branch join: one arm taints a local, both arms reach the sink.
	f.Add(seed(1,
		ins(lvm.OpConst, 2, 0, 0), // true
		ins(lvm.OpJumpFalse, 4, 0, 0),
		hostcall(0, 6), // device.location
		ins(lvm.OpStore, 0, 0, 0),
		ins(lvm.OpLoad, 0, 0, 0),
		hostcall(1, 7), // net.post
		ins(lvm.OpPop, 0, 0, 0),
		ins(lvm.OpReturnVoid, 0, 0, 0),
	))
	// Handler flow: taint acquired in a try region, sunk in the handler.
	f.Add(append(seed(1,
		hostcall(0, 5), // session.id
		ins(lvm.OpStore, 0, 0, 0),
		ins(lvm.OpReturnVoid, 0, 0, 0),
		ins(lvm.OpPop, 0, 0, 0),
		ins(lvm.OpLoad, 0, 0, 0),
		hostcall(1, 7), // net.post
		ins(lvm.OpPop, 0, 0, 0),
		ins(lvm.OpReturnVoid, 0, 0, 0),
	), 0, 3)) // handler over pc 0 targeting pc 3
	f.Fuzz(func(t *testing.T, data []byte) {
		p := taintProgramFromFuzz(data)
		if p == nil {
			return
		}
		checkForwardInvariant(t, p)
		rep, err := AnalyzeProgram(p)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		if err := lvm.VerifyProgram(p); err != nil {
			t.Fatalf("analysis accepted what VerifyMethod rejects: %v", err)
		}
		checkTaintSoundness(t, p, rep)
	})
}
