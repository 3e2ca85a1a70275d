package jit

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lvm"
	"repro/internal/lvm/analysis"
)

// Budgets of the differential fuzz: small, so runaway loops and recursion
// end quickly on both engines.
const (
	fuzzMaxSteps = 2_000
	fuzzMaxDepth = 16
)

// fuzzHost answers every host call deterministically: a name ending in
// ".fail" throws, any other call returns its last argument, or its own name
// when it has none. Names of even length are proven, so both the direct and
// the checked dispatch paths run.
type fuzzHost struct{}

func (fuzzHost) HostCall(name string, args []lvm.Value) (lvm.Value, error) {
	if strings.HasSuffix(name, ".fail") {
		return lvm.Nil(), lvm.Throwf("%s failed", name)
	}
	if len(args) > 0 {
		return args[len(args)-1], nil
	}
	return lvm.Str(name), nil
}

func (h fuzzHost) Prechecked(name string) lvm.HostFunc {
	if len(name)%2 != 0 {
		return nil
	}
	return func(args []lvm.Value) (lvm.Value, error) { return h.HostCall(name, args) }
}

// fuzzSeeds returns the assembler's fuzz corpus and the example advice.
func fuzzSeeds(f *testing.F) []string {
	f.Helper()
	var seeds []string
	corpus, err := filepath.Glob("../lvm/testdata/fuzz/FuzzAssemble/*")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// A corpus file is a header line and one quoted Go string literal.
		lines := strings.SplitN(strings.TrimSpace(string(data)), "\n", 2)
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "string("), ")")
		src, err := strconv.Unquote(lit)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		seeds = append(seeds, src)
	}
	advice, err := filepath.Glob("../../examples/advice/*.lasm")
	if err != nil || len(advice) == 0 {
		f.Fatalf("no example advice: %v", err)
	}
	for _, path := range advice {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, string(data))
	}
	return append(seeds, robotSrc, `
class C
  field f
  method int m(int n)
    load n
    push 0
    eq
    jmpf rec
    push 0
    ret
  rec:
    load self
    load n
    push 1
    sub
    call m 1
    push 1
    add
    ret
  end
  method str s()
  a:
    push "x"
    push 7
    concat
    push true
    concat
    hostcall t.fail 1
    ret
  b:
  h:
    push 42
    concat
    ret
    handler a b h
  end
  method int deep()
    load self
    call deep 0
    ret
  end
  method void spin()
  l:
    jmp l
  end
end`)
}

// FuzzJITMatchesInterp checks the JIT against the reference interpreter:
// every program the admission analysis accepts compiles on the JIT, and
// every method, run on both engines under the same small budgets, returns
// the same value or fails the same way — an LVM exception with the same
// message, the step budget, or the depth limit.
func FuzzJITMatchesInterp(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lvm.Assemble(src)
		if err != nil {
			return
		}
		if _, err := analysis.AnalyzeProgram(prog); err != nil {
			return // rejected before execution, exactly as a receiver would
		}
		m := NewMachine(prog, nil, fuzzHost{})
		m.MaxSteps, m.MaxDepth = fuzzMaxSteps, fuzzMaxDepth
		if _, err := m.CompileAll(); err != nil {
			t.Fatalf("analysed program does not compile: %v\n%s", err, src)
		}
		in := lvm.NewInterp(prog, fuzzHost{})
		in.MaxSteps, in.MaxDepth = fuzzMaxSteps, fuzzMaxDepth
		prog.EachMethod(func(meth *lvm.Method) {
			args := make([]lvm.Value, meth.Arity())
			for i := range args {
				args[i] = lvm.Int(int64(i + 1))
			}
			jv, jerr := m.Invoke(meth, meth.Class.New(), append([]lvm.Value(nil), args...))
			iv, ierr := in.Invoke(meth, meth.Class.New(), append([]lvm.Value(nil), args...))
			if !sameOutcome(jv, jerr, iv, ierr) {
				t.Errorf("%s: jit = %v, %v; interp = %v, %v\n%s", meth, jv, jerr, iv, ierr, src)
			}
		})
	})
}

// sameOutcome compares the results of one method on the two engines.
// Objects are fresh per engine, so they compare by class.
func sameOutcome(jv lvm.Value, jerr error, iv lvm.Value, ierr error) bool {
	if jerr != nil || ierr != nil {
		var jt, it *lvm.Thrown
		switch {
		case errors.As(jerr, &jt) && errors.As(ierr, &it):
			return jt.Msg == it.Msg
		case errors.Is(jerr, lvm.ErrStepBudget):
			return errors.Is(ierr, lvm.ErrStepBudget)
		case errors.Is(jerr, lvm.ErrStackDepth):
			return errors.Is(ierr, lvm.ErrStackDepth)
		}
		return false
	}
	if jv.K == lvm.KObj && iv.K == lvm.KObj {
		return jv.String() == iv.String()
	}
	return jv.Equal(iv)
}
