// Package analysis is the admission-time static analyzer for LVM bytecode:
// control-flow graph construction, a generic forward dataflow engine, and
// three client analyses — typed stack verification (abstract interpretation
// over value kinds), capability inference (the exact set of sandbox
// capabilities reachable from a method), and bounded-cost estimation (static
// fuel bounds for acyclic code). Bases run it before signing and pushing an
// extension; receivers re-run it before weaving, so a hostile or buggy
// extension is rejected on the base station instead of aborting inside a
// node's sandbox after it was already distributed (the mobile-code
// verification discipline of Java bytecode verification, applied to the
// paper's PROSE sandbox promise).
package analysis

import (
	"fmt"

	"repro/internal/lvm"
)

// Block is one basic block: the half-open pc range [Start, End) plus the
// indices of successor blocks. Exception edges (protected range → handler
// target) are kept separately in Handlers so clients can decide whether they
// participate in an analysis.
type Block struct {
	Start, End int
	Succs      []int
}

// CFG is the control-flow graph of a single method.
type CFG struct {
	Method *lvm.Method
	Blocks []Block
	// blockOf maps each pc to the index of its containing block.
	blockOf []int
}

// BlockOf returns the index of the block containing pc.
func (g *CFG) BlockOf(pc int) int { return g.blockOf[pc] }

// BuildCFG partitions m's bytecode into basic blocks and links them. It
// rejects structurally invalid code: empty bodies, out-of-range jump targets,
// malformed handler tables, and code whose final instruction is not a
// terminator (so no path — reachable or not — can fall off the end).
func BuildCFG(m *lvm.Method) (*CFG, error) {
	n := len(m.Code)
	if n == 0 {
		return nil, fmt.Errorf("empty body")
	}
	for _, h := range m.Handlers {
		if h.Start < 0 || h.End > n || h.Start >= h.End {
			return nil, fmt.Errorf("bad handler range [%d,%d)", h.Start, h.End)
		}
		if h.Target < 0 || h.Target >= n {
			return nil, fmt.Errorf("handler target %d out of range", h.Target)
		}
	}
	// The last instruction must not fall through past the end of the code.
	switch m.Code[n-1].Op {
	case lvm.OpReturn, lvm.OpReturnVoid, lvm.OpThrow, lvm.OpJump:
		// fine
	default:
		return nil, fmt.Errorf("control can fall off the end at pc %d (%s)", n-1, m.Code[n-1].Op)
	}

	leader := make([]bool, n)
	leader[0] = true
	for pc, ins := range m.Code {
		switch ins.Op {
		case lvm.OpJump, lvm.OpJumpFalse:
			if ins.A < 0 || ins.A >= n {
				return nil, fmt.Errorf("pc %d: jump target %d out of range", pc, ins.A)
			}
			leader[ins.A] = true
			if pc+1 < n {
				leader[pc+1] = true
			}
		case lvm.OpReturn, lvm.OpReturnVoid, lvm.OpThrow:
			if pc+1 < n {
				leader[pc+1] = true
			}
		}
	}
	for _, h := range m.Handlers {
		leader[h.Target] = true
		leader[h.Start] = true
		if h.End < n {
			leader[h.End] = true
		}
	}

	nblocks := 0
	for _, l := range leader {
		if l {
			nblocks++
		}
	}
	g := &CFG{Method: m, Blocks: make([]Block, 0, nblocks), blockOf: make([]int, n)}
	start := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || leader[pc] {
			g.Blocks = append(g.Blocks, Block{Start: start, End: pc})
			start = pc
		}
	}
	for i, b := range g.Blocks {
		for pc := b.Start; pc < b.End; pc++ {
			g.blockOf[pc] = i
		}
	}
	// A block has at most two successors; all lists share one array, each
	// capped at its own length.
	succs := make([]int, 0, 2*len(g.Blocks))
	for i := range g.Blocks {
		b := &g.Blocks[i]
		from := len(succs)
		last := m.Code[b.End-1]
		switch last.Op {
		case lvm.OpJump:
			succs = append(succs, g.blockOf[last.A])
		case lvm.OpJumpFalse:
			succs = append(succs, g.blockOf[last.A])
			if b.End < n {
				succs = append(succs, g.blockOf[b.End])
			}
		case lvm.OpReturn, lvm.OpReturnVoid, lvm.OpThrow:
			// terminal: no successors
		default:
			succs = append(succs, g.blockOf[b.End])
		}
		if len(succs) > from {
			b.Succs = succs[from:len(succs):len(succs)]
		}
	}
	return g, nil
}

// Reachable reports, per pc, whether the instruction can be reached from the
// method entry or from a handler whose protected range is itself reachable.
func (g *CFG) Reachable() []bool {
	n := len(g.blockOf)
	seenBlock := make([]bool, len(g.Blocks))
	var visit func(int)
	visit = func(b int) {
		if seenBlock[b] {
			return
		}
		seenBlock[b] = true
		for _, s := range g.Blocks[b].Succs {
			visit(s)
		}
	}
	visit(0)
	// Handler targets become reachable when any protected pc is reachable;
	// iterate to a fixpoint since handlers can chain.
	for changed := true; changed; {
		changed = false
		for _, h := range g.Method.Handlers {
			tb := g.blockOf[h.Target]
			if seenBlock[tb] {
				continue
			}
			for pc := h.Start; pc < h.End; pc++ {
				if seenBlock[g.blockOf[pc]] {
					visit(tb)
					changed = true
					break
				}
			}
		}
	}
	out := make([]bool, n)
	for pc := 0; pc < n; pc++ {
		out[pc] = seenBlock[g.blockOf[pc]]
	}
	return out
}

// unreachablePCs lists, in order, the pcs reach marks false.
func unreachablePCs(reach []bool) []int {
	var out []int
	for pc, r := range reach {
		if !r {
			out = append(out, pc)
		}
	}
	return out
}

// succsWithHandlers returns the successor lists extended with exception
// edges: every block intersecting a protected range gains an edge to the
// handler's target block.
func (g *CFG) succsWithHandlers() [][]int {
	out := make([][]int, len(g.Blocks))
	if len(g.Method.Handlers) == 0 {
		for i, b := range g.Blocks {
			out[i] = b.Succs // read-only: nothing is added without handlers
		}
		return out
	}
	for i, b := range g.Blocks {
		out[i] = append([]int(nil), b.Succs...)
	}
	for _, h := range g.Method.Handlers {
		tb := g.blockOf[h.Target]
		for i, b := range g.Blocks {
			if b.Start < h.End && b.End > h.Start && !containsInt(out[i], tb) {
				out[i] = append(out[i], tb)
			}
		}
	}
	return out
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
