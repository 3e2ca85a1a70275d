package lvm

import "testing"

// FuzzAssemble is the native-fuzzing counterpart of TestAssembleNeverPanics:
// mobile extension code arrives from the network, so the assembler must
// reject garbage with errors, never panics — and anything it accepts must
// disassemble into text it accepts again. Programs that additionally pass
// VerifyProgram must run in the reference interpreter without panicking
// under a small step budget. The production install pipeline is Assemble →
// analysis.AnalyzeProgram → JIT, and AnalyzeProgram accepts only what
// VerifyProgram accepts; internal/jit's FuzzJITMatchesInterp checks that
// the JIT agrees with the interpreter on every program the analysis admits.
func FuzzAssemble(f *testing.F) {
	for _, seed := range []string{
		lvmFixtureA,
		lvmFixtureB,
		"class", "class \n end", "method", "end", "end\nend",
		"class C\nmethod void m()\npush\nend\nend",
		"class C\nmethod void m()\npush \"unterminated\nend\nend",
		"class C\nmethod void m()\nlabel:\njmp label\nend\nend",
		"class C\n  method int m()\n    push \"s\"\n    push 1\n    add\n    ret\n  end\nend",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return
		}
		text := Disassemble(prog)
		if _, err := Assemble(text); err != nil {
			t.Fatalf("accepted program failed to round trip: %v\n%s", err, text)
		}
		if err := VerifyProgram(prog); err != nil {
			return // rejected before execution, exactly as a receiver would
		}
		in := NewInterp(prog, nil)
		in.MaxSteps = 2_000
		in.MaxDepth = 16
		prog.EachMethod(func(m *Method) {
			if m.Arity() != 0 {
				return
			}
			_, _ = in.Invoke(m, m.Class.New(), nil)
		})
	})
}
