package lvm

import (
	"encoding/json"
	"os"
	"testing"
	"testing/quick"
)

// adversarialFragments loads the assembler's adversarial inputs: grammar
// edge cases plus one fragment per operand check and error path.
func adversarialFragments(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("testdata/asm_fragments.json")
	if err != nil {
		t.Fatal(err)
	}
	var frags []string
	if err := json.Unmarshal(data, &frags); err != nil {
		t.Fatal(err)
	}
	return frags
}

// TestAssembleNeverPanics feeds arbitrary text to the assembler: mobile
// extension code arrives from the network, so the toolchain must reject
// garbage with errors, never panics.
func TestAssembleNeverPanics(t *testing.T) {
	check := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Assemble(%q) panicked: %v", src, r)
				ok = false
			}
		}()
		_, _ = Assemble(src)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Adversarial fragments around the grammar. The analysis package's
	// verdict golden pins the exact error each of them gets.
	for _, src := range adversarialFragments(t) {
		check(src)
	}
}

// TestAssembleRejectsMethodOfReplacedClass: a second declaration of a class
// replaces the first, and assembling a method only the first declared used
// to dereference a nil method.
func TestAssembleRejectsMethodOfReplacedClass(t *testing.T) {
	src := "class A\n method void m()\n retv\n end\nend\nclass A\nend\n"
	_, err := Assemble(src)
	if want := "lvm asm line 2: class A redeclared after method m"; err == nil || err.Error() != want {
		t.Errorf("Assemble(%q) = %v, want %q", src, err, want)
	}
}

// TestInterpNeverPanicsOnAssembled runs any program that assembles through
// the interpreter with a small budget; type confusion must surface as errors.
func TestInterpNeverPanicsOnAssembled(t *testing.T) {
	srcs := []string{
		// Type confusion: string where int expected.
		`class C
  method int m()
    push "s"
    push 1
    add
    ret
  end
end`,
		// Concat on object.
		`class C
  method str m()
    new C
    push "x"
    concat
    ret
  end
end`,
		// Compare across kinds.
		`class C
  method bool m()
    push "a"
    push 1
    lt
    ret
  end
end`,
	}
	for i, src := range srcs {
		prog, err := Assemble(src)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		in := NewInterp(prog, nil)
		in.MaxSteps = 10_000
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("case %d panicked: %v", i, r)
				}
			}()
			_, _ = in.Invoke(prog.Method("C", "m"), prog.Class("C").New(), nil)
		}()
	}
}

// TestDisassembleArbitraryRoundTrips: any program the assembler accepts must
// disassemble into text the assembler accepts again.
func TestDisassembleArbitraryRoundTrips(t *testing.T) {
	fixtures := []string{
		lvmFixtureA, lvmFixtureB,
	}
	for i, src := range fixtures {
		prog, err := Assemble(src)
		if err != nil {
			t.Fatalf("fixture %d: %v", i, err)
		}
		text := Disassemble(prog)
		if _, err := Assemble(text); err != nil {
			t.Errorf("fixture %d round trip: %v\n%s", i, err, text)
		}
	}
}

const lvmFixtureA = `
class A
  field x
  method void set(int v)
    load v
    setself x
  end
  method int get()
    getself x
    ret
  end
end`

const lvmFixtureB = `
class B
  method int host(int v)
    load v
    hostcall f.g 1
    ret
  end
  method obj mk()
    new B
    ret
  end
end`
