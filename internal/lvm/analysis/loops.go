package analysis

import "repro/internal/lvm"

// Natural-loop trip-count analysis for the cost estimator. PR 5's fuel bound
// covered only acyclic CFGs; this file extends it to the classic counted-loop
// shape so far more real advice gets a finite Fuel (and so a tight
// MaxSteps on its advice machine):
//
//	           push C0 ; store i        (preheader: constant init)
//	  header:  load i ; push K ; cmp ; jmpf exit   (cmp ∈ lt,le,gt,ge)
//	  body:    ... load i ; push S ; add|sub ; store i ...  (sole store to i)
//	           jmp header
//
// The rules are deliberately syntactic: the header block must be exactly the
// four-instruction test, the induction variable must have exactly one update
// in the loop (a constant positive step, add for upward lt/le loops, sub for
// downward gt/ge loops), and its initialisation must be a constant store
// found by walking single-predecessor blocks up from the header's entry
// edge. Anything else — irreducible cycles, handler edges into a loop body,
// multiple back edges per header, non-constant bounds — stays Unbounded.
// Every accepted loop yields an exact trip count, so the resulting Steps is
// still a sound upper bound on engine steps.

// maxFuelSteps caps the computed bound (and every intermediate product) so
// deeply nested loops cannot overflow; anything larger is Unbounded.
const maxFuelSteps = 1 << 31

// blockMultipliers returns, per basic block, how many times one invocation
// can execute it (1 everywhere for acyclic code; loop bodies scale by their
// trip counts, nested loops multiply). ok is false when any cycle is not a
// recognised constant-trip natural loop.
func blockMultipliers(g *CFG) (mult []int64, ok bool) {
	n := len(g.Blocks)
	mult = make([]int64, n)
	for i := range mult {
		mult[i] = 1
	}
	succsH := g.succsWithHandlers()
	if !cyclic(succsH) {
		return mult, true
	}

	preds := make([][]int, n)
	for b, blk := range g.Blocks {
		for _, s := range blk.Succs {
			preds[s] = append(preds[s], b)
		}
	}
	dom := dominators(g, preds)

	// Collect back edges tail→header on the normal-edge graph: edges whose
	// target dominates their source. At most one back edge per header.
	type loop struct {
		header, tail int
		body         map[int]bool
		trips        int64
	}
	var loops []*loop
	byHeader := make(map[int]bool)
	for b, blk := range g.Blocks {
		for _, s := range blk.Succs {
			if dom[b] == nil || !dom[b][s] {
				continue
			}
			if byHeader[s] {
				return nil, false // two back edges share a header
			}
			byHeader[s] = true
			loops = append(loops, &loop{header: s, tail: b})
		}
	}

	// Removing the recognised back edges must leave the graph — exception
	// edges included — acyclic: any residual cycle (irreducible loops,
	// throw/handler loops, cycles in dead code) is out of scope.
	residual := make([][]int, n)
	for b, ss := range succsH {
		for _, s := range ss {
			isBack := false
			for _, l := range loops {
				if b == l.tail && s == l.header {
					isBack = true
					break
				}
			}
			if !isBack {
				residual[b] = append(residual[b], s)
			}
		}
	}
	if cyclic(residual) {
		return nil, false
	}

	for _, l := range loops {
		l.body = naturalLoopBody(l.header, l.tail, preds)
		trips, tok := tripCount(g, preds, dom, l.header, l.tail, l.body)
		if !tok {
			return nil, false
		}
		l.trips = trips
		for b := range l.body {
			f := l.trips
			if b == l.header {
				f = l.trips + 1 // the final, failing test still runs
			}
			mult[b] *= f
			if mult[b] > maxFuelSteps {
				return nil, false
			}
		}
	}
	return mult, true
}

// cyclic reports whether the successor graph has a cycle (white/grey/black).
func cyclic(succs [][]int) bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(succs))
	var visit func(int) bool
	visit = func(b int) bool {
		color[b] = grey
		for _, s := range succs[b] {
			switch color[s] {
			case grey:
				return true
			case white:
				if visit(s) {
					return true
				}
			}
		}
		color[b] = black
		return false
	}
	for b := range succs {
		if color[b] == white && visit(b) {
			return true
		}
	}
	return false
}

// dominators computes per-block dominator sets over the normal-edge graph
// (nil for blocks unreachable from the entry). O(n²) iteration — method CFGs
// are tiny.
func dominators(g *CFG, preds [][]int) []map[int]bool {
	n := len(g.Blocks)
	reach := make([]bool, n)
	var visit func(int)
	visit = func(b int) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range g.Blocks[b].Succs {
			visit(s)
		}
	}
	visit(0)

	dom := make([]map[int]bool, n)
	dom[0] = map[int]bool{0: true}
	all := make(map[int]bool, n)
	for b := 0; b < n; b++ {
		if reach[b] {
			all[b] = true
		}
	}
	for b := 1; b < n; b++ {
		if reach[b] {
			dom[b] = all
		}
	}
	for changed := true; changed; {
		changed = false
		for b := 1; b < n; b++ {
			if !reach[b] {
				continue
			}
			next := map[int]bool{b: true}
			first := true
			for _, p := range preds[b] {
				if !reach[p] || dom[p] == nil {
					continue
				}
				if first {
					for d := range dom[p] {
						next[d] = true
					}
					first = false
					continue
				}
				for d := range next {
					if d != b && !dom[p][d] {
						delete(next, d)
					}
				}
			}
			if len(next) != len(dom[b]) || !sameSet(next, dom[b]) {
				dom[b] = next
				changed = true
			}
		}
	}
	return dom
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// naturalLoopBody returns {header} ∪ all blocks reaching tail without
// passing through header.
func naturalLoopBody(header, tail int, preds [][]int) map[int]bool {
	body := map[int]bool{header: true, tail: true}
	stack := []int{tail}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[b] {
			if !body[p] {
				body[p] = true
				stack = append(stack, p)
			}
		}
	}
	return body
}

// tripCount matches the counted-loop shape rooted at header and returns the
// exact number of body executions.
func tripCount(g *CFG, preds [][]int, dom []map[int]bool, header, tail int, body map[int]bool) (int64, bool) {
	m := g.Method
	hb := g.Blocks[header]
	if hb.End-hb.Start != 4 {
		return 0, false
	}
	load, konst, cmp, jmpf := m.Code[hb.Start], m.Code[hb.Start+1], m.Code[hb.Start+2], m.Code[hb.Start+3]
	if load.Op != lvm.OpLoad || konst.Op != lvm.OpConst || jmpf.Op != lvm.OpJumpFalse {
		return 0, false
	}
	switch cmp.Op {
	case lvm.OpLt, lvm.OpLe, lvm.OpGt, lvm.OpGe:
	default:
		return 0, false
	}
	slot := load.A
	if konst.A < 0 || konst.A >= len(m.Consts) || m.Consts[konst.A].K != lvm.KInt {
		return 0, false
	}
	limit := m.Consts[konst.A].I
	// The false branch must leave the loop; the fallthrough must stay in it.
	if body[g.BlockOf(jmpf.A)] {
		return 0, false
	}
	if hb.End >= len(m.Code) || !body[g.BlockOf(hb.End)] {
		return 0, false
	}
	// No exception edge may enter the loop: a handler target inside the body
	// could resume mid-iteration past the update.
	for _, h := range m.Handlers {
		if body[g.BlockOf(h.Target)] {
			return 0, false
		}
	}

	// Exactly one store to the induction slot inside the loop, in the shape
	// load slot ; push step ; add|sub ; store slot, all within one block —
	// and that block must dominate the back-edge tail, so no iteration can
	// reach the back edge without running the update.
	step := int64(0)
	up := false
	found := false
	for b := range body {
		blk := g.Blocks[b]
		for pc := blk.Start; pc < blk.End; pc++ {
			ins := m.Code[pc]
			if ins.Op != lvm.OpStore || ins.A != slot {
				continue
			}
			if found || pc-3 < blk.Start {
				return 0, false
			}
			l2, k2, op2 := m.Code[pc-3], m.Code[pc-2], m.Code[pc-1]
			if l2.Op != lvm.OpLoad || l2.A != slot || k2.Op != lvm.OpConst {
				return 0, false
			}
			if k2.A < 0 || k2.A >= len(m.Consts) || m.Consts[k2.A].K != lvm.KInt {
				return 0, false
			}
			if dom[tail] == nil || !dom[tail][b] {
				return 0, false
			}
			step = m.Consts[k2.A].I
			switch op2.Op {
			case lvm.OpAdd:
				up = true
			case lvm.OpSub:
				up = false
			default:
				return 0, false
			}
			found = true
		}
	}
	if !found || step <= 0 || step > maxFuelSteps {
		return 0, false
	}

	// Constant initialisation: walk single-predecessor blocks up from the
	// loop entry edge looking for the last store to the slot.
	init, ok := initialValue(g, preds, header, body, slot)
	if !ok {
		return 0, false
	}
	// Keep bound and init small enough that the trip-count arithmetic below
	// cannot overflow int64.
	if limit > maxFuelSteps || limit < -maxFuelSteps || init > maxFuelSteps || init < -maxFuelSteps {
		return 0, false
	}

	var trips int64
	switch cmp.Op {
	case lvm.OpLt:
		if !up {
			return 0, false
		}
		trips = ceilDiv(limit-init, step)
	case lvm.OpLe:
		if !up {
			return 0, false
		}
		trips = ceilDiv(limit-init+1, step)
	case lvm.OpGt:
		if up {
			return 0, false
		}
		trips = ceilDiv(init-limit, step)
	case lvm.OpGe:
		if up {
			return 0, false
		}
		trips = ceilDiv(init-limit+1, step)
	}
	if trips < 0 {
		trips = 0
	}
	if trips > maxFuelSteps {
		return 0, false
	}
	return trips, true
}

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// initialValue finds the constant stored into slot before the loop is
// entered: starting at the unique outside predecessor of header, scan the
// block backwards for a store to slot (which must be preceded by an integer
// push), walking up through unique predecessors until one is found.
func initialValue(g *CFG, preds [][]int, header int, body map[int]bool, slot int) (int64, bool) {
	m := g.Method
	var outside []int
	for _, p := range preds[header] {
		if !body[p] {
			outside = append(outside, p)
		}
	}
	if len(outside) != 1 {
		return 0, false
	}
	b := outside[0]
	for hops := 0; hops < len(g.Blocks)+1; hops++ {
		blk := g.Blocks[b]
		for pc := blk.End - 1; pc >= blk.Start; pc-- {
			ins := m.Code[pc]
			if ins.Op != lvm.OpStore || ins.A != slot {
				continue
			}
			if pc-1 < blk.Start {
				return 0, false
			}
			k := m.Code[pc-1]
			if k.Op != lvm.OpConst || k.A < 0 || k.A >= len(m.Consts) || m.Consts[k.A].K != lvm.KInt {
				return 0, false
			}
			return m.Consts[k.A].I, true
		}
		if len(preds[b]) != 1 {
			return 0, false
		}
		b = preds[b][0]
	}
	return 0, false
}
