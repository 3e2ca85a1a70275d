package analysis

import (
	"testing"
)

// fuelOfSrc analyses src and returns C.m's fuel verdict.
func fuelOfSrc(t *testing.T, src string) Fuel {
	t.Helper()
	p, m := mustAssembleMethod(t, src)
	rep, err := analyzeMethod(p, m)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return rep.Fuel
}

func TestFuelCountedLoop(t *testing.T) {
	f := fuelOfSrc(t, `class C
  method void m()
    local i
    push 0
    store i
  top:
    load i
    push 10
    lt
    jmpf done
    load i
    push 1
    add
    store i
    jmp top
  done:
    retv
  end
end`)
	if !f.Bounded {
		t.Fatal("counted loop should be bounded")
	}
	// Entry 2×1, header 4×11 (final failing test included), body 5×10, exit 1.
	if want := 2 + 4*11 + 5*10 + 1; f.Steps != want {
		t.Errorf("steps = %d, want %d", f.Steps, want)
	}
}

func TestFuelCountedLoopDown(t *testing.T) {
	f := fuelOfSrc(t, `class C
  method void m()
    local i
    push 5
    store i
  top:
    load i
    push 0
    gt
    jmpf done
    load i
    push 1
    sub
    store i
    jmp top
  done:
    retv
  end
end`)
	if !f.Bounded {
		t.Fatal("down-counting loop should be bounded")
	}
	if want := 2 + 4*6 + 5*5 + 1; f.Steps != want {
		t.Errorf("steps = %d, want %d", f.Steps, want)
	}
}

func TestFuelNestedLoops(t *testing.T) {
	f := fuelOfSrc(t, `class C
  method void m()
    local i
    local j
    push 0
    store i
  outer:
    load i
    push 2
    lt
    jmpf done
    push 0
    store j
  inner:
    load j
    push 3
    lt
    jmpf iend
    load j
    push 1
    add
    store j
    jmp inner
  iend:
    load i
    push 1
    add
    store i
    jmp outer
  done:
    retv
  end
end`)
	if !f.Bounded {
		t.Fatal("nested counted loops should be bounded")
	}
	// entry 2×1 + outer header 4×3 + inner preheader 2×2 + inner header
	// 4×(2×4) + inner body 5×(2×3) + outer latch 5×2 + exit 1×1.
	if want := 2 + 12 + 4 + 32 + 30 + 10 + 1; f.Steps != want {
		t.Errorf("steps = %d, want %d", f.Steps, want)
	}
}

func TestFuelLoopWithBoundedCall(t *testing.T) {
	f := fuelOfSrc(t, `class C
  method void m()
    local i
    push 0
    store i
  top:
    load i
    push 4
    lt
    jmpf done
    load self
    call tick 0
    pop
    load i
    push 1
    add
    store i
    jmp top
  done:
    retv
  end
  method int tick()
    push 1
    ret
  end
end`)
	if !f.Bounded {
		t.Fatal("loop calling bounded helper should be bounded")
	}
	// Body per iteration: load self, call(+2 callee), pop, 4 update instrs,
	// jmp = 8 instructions + 2 callee steps; header 4, ×5; entry 2; exit 1.
	if want := 2 + 4*5 + (8+2)*4 + 1; f.Steps != want {
		t.Errorf("steps = %d, want %d", f.Steps, want)
	}
}

func TestFuelInfiniteLoopStaysUnbounded(t *testing.T) {
	f := fuelOfSrc(t, `class C
  method void m()
  top:
    jmp top
  end
end`)
	if f.Bounded {
		t.Fatal("jmp-to-self must stay unbounded")
	}
}

func TestFuelConditionalUpdateUnbounded(t *testing.T) {
	// The increment is guarded: iterations may skip it, so the loop can spin
	// forever and must not be credited with a constant trip count.
	f := fuelOfSrc(t, `class C
  method void m(bool c)
    local i
    push 0
    store i
  top:
    load i
    push 10
    lt
    jmpf done
    load c
    jmpf skip
    load i
    push 1
    add
    store i
  skip:
    jmp top
  done:
    retv
  end
end`)
	if f.Bounded {
		t.Fatal("conditionally-updated induction variable must stay unbounded")
	}
}

func TestFuelNonConstantBoundUnbounded(t *testing.T) {
	f := fuelOfSrc(t, `class C
  method void m(int n)
    local i
    push 0
    store i
  top:
    load i
    load n
    lt
    jmpf done
    load i
    push 1
    add
    store i
    jmp top
  done:
    retv
  end
end`)
	if f.Bounded {
		t.Fatal("variable loop bound must stay unbounded")
	}
}

func TestFuelWrongDirectionUnbounded(t *testing.T) {
	// i counts down while the test is i < 10: never terminates from 0.
	f := fuelOfSrc(t, `class C
  method void m()
    local i
    push 0
    store i
  top:
    load i
    push 10
    lt
    jmpf done
    load i
    push 1
    sub
    store i
    jmp top
  done:
    retv
  end
end`)
	if f.Bounded {
		t.Fatal("decrement under an upper-bound test must stay unbounded")
	}
}

func TestFuelZeroTripLoop(t *testing.T) {
	f := fuelOfSrc(t, `class C
  method void m()
    local i
    push 7
    store i
  top:
    load i
    push 3
    lt
    jmpf done
    load i
    push 1
    add
    store i
    jmp top
  done:
    retv
  end
end`)
	if !f.Bounded {
		t.Fatal("zero-trip loop should be bounded")
	}
	// Body never runs; header runs its one failing test.
	if want := 2 + 4 + 1; f.Steps != want {
		t.Errorf("steps = %d, want %d", f.Steps, want)
	}
}

func TestFuelLoopRecursionStillUnbounded(t *testing.T) {
	f := fuelOfSrc(t, `class C
  method void m()
    local i
    push 0
    store i
  top:
    load i
    push 2
    lt
    jmpf done
    load self
    call m2 0
    pop
    load i
    push 1
    add
    store i
    jmp top
  done:
    retv
  end
  method int m2()
    load self
    call m2 0
    ret
  end
end`)
	if f.Bounded {
		t.Fatal("recursion inside a counted loop must stay unbounded")
	}
}
