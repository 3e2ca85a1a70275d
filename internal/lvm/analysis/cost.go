package analysis

import "repro/internal/lvm"

// Fuel is a static execution-cost verdict for one entry point. Bounded means
// every reachable cycle is a recognised constant-trip loop (see loops.go) and
// no recursion is reachable; Steps is then an upper bound on the engine
// steps one invocation can consume (each instruction costs one step, scaled
// by its loop trip counts; calls add the callee's bound). Unbounded code
// falls back to the advice engine's default budget.
type Fuel struct {
	Bounded bool
	Steps   int
}

// Unbounded is the verdict for cyclic or recursive code.
func Unbounded() Fuel { return Fuel{} }

// fuelMark is where a method's cost bound stands during the call-graph
// traversal.
type fuelMark uint8

const (
	fuelUnknown  fuelMark = iota
	fuelVisiting          // on the traversal stack
	fuelKnown             // memoized in methodInfo.fuel
)

// fuelOf returns the static cost bound of one invocation of mi's method,
// including everything it may call. Recursion — even potential recursion
// through an imprecisely resolved call — yields Unbounded.
func (a *analyzer) fuelOf(mi *methodInfo) Fuel {
	switch mi.fuelAt {
	case fuelKnown:
		return mi.fuel
	case fuelVisiting:
		// Back edge in the call graph: (potential) recursion.
		return Unbounded()
	}
	mi.fuelAt = fuelVisiting
	mi.fuel = a.localFuel(mi)
	mi.fuelAt = fuelKnown
	return mi.fuel
}

// localFuel bounds one invocation of m. blockMultipliers says how many times
// each block can execute: 1 everywhere for acyclic code, trip counts for
// recognised constant-trip loops, and failure (→ Unbounded) for any other
// cycle, including exception edges that can loop through repeated throws.
// The sum of per-instruction costs scaled by their block's multiplier is a
// sound — if conservative — upper bound that needs no path enumeration.
func (a *analyzer) localFuel(mi *methodInfo) Fuel {
	m, ti := mi.m, mi.types
	mult, ok := blockMultipliers(ti.CFG)
	if !ok {
		return Unbounded()
	}
	var steps int64
	for pc, ins := range m.Code {
		k := mult[ti.CFG.BlockOf(pc)]
		steps += k
		if ins.Op != lvm.OpCall {
			continue
		}
		callees := mi.targets[pc]
		if len(callees) == 0 {
			// Unresolvable call: at run time it would throw "no method",
			// costing nothing further. Charge only the instruction.
			continue
		}
		worst := 0
		for _, callee := range callees {
			cf := a.fuelOf(a.info[callee])
			if !cf.Bounded {
				return Unbounded()
			}
			if cf.Steps > worst {
				worst = cf.Steps
			}
		}
		steps += k * int64(worst)
		if steps > maxFuelSteps {
			return Unbounded()
		}
	}
	if steps > maxFuelSteps {
		return Unbounded()
	}
	return Fuel{Bounded: true, Steps: int(steps)}
}
