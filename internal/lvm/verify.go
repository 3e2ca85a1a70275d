package lvm

import (
	"fmt"
)

// VerifyMethod statically checks a method's bytecode before execution:
// operand indexes in range, jump targets valid, and a consistent, never-
// negative stack depth at every instruction (merging over all control-flow
// paths, including exception handlers). Receivers verify mobile extension
// code with this before it ever runs, complementing the run-time sandbox.
func VerifyMethod(p *Program, m *Method) error {
	_, err := MaxStack(p, m)
	return err
}

// MaxStack verifies m as VerifyMethod does and returns the deepest operand
// stack any path through it reaches. The JIT sizes a method's frame by it.
func MaxStack(p *Program, m *Method) (int, error) {
	n := len(m.Code)
	if n == 0 {
		return 0, fmt.Errorf("lvm verify: %s: empty body", m)
	}
	for _, h := range m.Handlers {
		if h.Start < 0 || h.End > n || h.Start >= h.End {
			return 0, fmt.Errorf("lvm verify: %s: bad handler range [%d,%d)", m, h.Start, h.End)
		}
		if h.Target < 0 || h.Target >= n {
			return 0, fmt.Errorf("lvm verify: %s: handler target %d out of range", m, h.Target)
		}
	}
	// Structural check: the final instruction must be a terminator or an
	// unconditional jump, so no path — reachable or not — can run off the end
	// of the code. The reachable case is also caught by the walk below, but
	// dead tails would otherwise slip through.
	switch m.Code[n-1].Op {
	case OpReturn, OpReturnVoid, OpThrow, OpJump:
	default:
		return 0, fmt.Errorf("lvm verify: %s: control can fall off the end at pc %d (%s)", m, n-1, m.Code[n-1].Op)
	}

	// Abstract interpretation over stack depth. -1 = unvisited.
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	type work struct{ pc, d int }
	queue := []work{{0, 0}}
	maxDepth := 0
	// Handler entries start with exactly the exception message on the stack.
	for _, h := range m.Handlers {
		queue = append(queue, work{h.Target, 1})
		maxDepth = 1
	}

	frame := m.FrameSize()
	push := func(q []work, pc, d int) ([]work, error) {
		if pc < 0 || pc >= n {
			return q, fmt.Errorf("lvm verify: %s: jump target %d out of range", m, pc)
		}
		if depth[pc] == -1 {
			depth[pc] = d
			return append(q, work{pc, d}), nil
		}
		if depth[pc] != d {
			return q, fmt.Errorf("lvm verify: %s: inconsistent stack depth at pc %d (%d vs %d)", m, pc, depth[pc], d)
		}
		return q, nil
	}

	var err error
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		pc, d := w.pc, w.d
		if depth[pc] == -1 {
			depth[pc] = d
		}
		ins := m.Code[pc]

		pop, pushN, errV := stackEffect(p, m, ins, frame)
		if errV != nil {
			return 0, fmt.Errorf("lvm verify: %s pc %d: %w", m, pc, errV)
		}
		if d < pop {
			return 0, fmt.Errorf("lvm verify: %s pc %d: stack underflow (%s needs %d, have %d)", m, pc, ins.Op, pop, d)
		}
		nd := d - pop + pushN
		maxDepth = max(maxDepth, nd)

		switch ins.Op {
		case OpReturn, OpReturnVoid, OpThrow:
			// Terminal: no successors.
		case OpJump:
			if queue, err = push(queue, ins.A, nd); err != nil {
				return 0, err
			}
		case OpJumpFalse:
			if queue, err = push(queue, ins.A, nd); err != nil {
				return 0, err
			}
			if queue, err = push(queue, pc+1, nd); err != nil {
				return 0, err
			}
		default:
			if pc+1 >= n {
				return 0, fmt.Errorf("lvm verify: %s: control falls off the end at pc %d", m, pc)
			}
			if queue, err = push(queue, pc+1, nd); err != nil {
				return 0, err
			}
		}
	}
	// Instructions the walk never reached are dead code, but they travel with
	// the method: validate their operands so a malformed instruction cannot
	// hide behind a jump.
	for pc := range m.Code {
		if depth[pc] != -1 {
			continue
		}
		if _, _, errV := stackEffect(p, m, m.Code[pc], frame); errV != nil {
			return 0, fmt.Errorf("lvm verify: %s pc %d (unreachable): %w", m, pc, errV)
		}
	}
	return maxDepth, nil
}

// stackEffect returns how many values ins pops and pushes, validating its
// operands along the way.
func stackEffect(p *Program, m *Method, ins Instr, frame int) (pop, push int, err error) {
	switch ins.Op {
	case OpNop:
		return 0, 0, nil
	case OpConst:
		if ins.A < 0 || ins.A >= len(m.Consts) {
			return 0, 0, fmt.Errorf("const index %d out of range", ins.A)
		}
		return 0, 1, nil
	case OpLoad:
		if ins.A < 0 || ins.A >= frame {
			return 0, 0, fmt.Errorf("load slot %d out of range", ins.A)
		}
		return 0, 1, nil
	case OpStore:
		if ins.A < 0 || ins.A >= frame {
			return 0, 0, fmt.Errorf("store slot %d out of range", ins.A)
		}
		return 1, 0, nil
	case OpGetField:
		return 1, 1, nil
	case OpSetField:
		return 2, 0, nil
	case OpGetSelf:
		return 0, 1, nil
	case OpSetSelf:
		return 1, 0, nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt,
		OpGe, OpAnd, OpOr, OpConcat:
		return 2, 1, nil
	case OpNeg, OpNot, OpLen:
		return 1, 1, nil
	case OpJump:
		return 0, 0, nil
	case OpJumpFalse:
		return 1, 0, nil
	case OpCall:
		if ins.B < 0 {
			return 0, 0, fmt.Errorf("negative argc")
		}
		return ins.B + 1, 1, nil
	case OpHostCall:
		if ins.B < 0 {
			return 0, 0, fmt.Errorf("negative argc")
		}
		return ins.B, 1, nil
	case OpNew:
		if p != nil && p.Class(ins.Sym) == nil {
			return 0, 0, fmt.Errorf("unknown class %q", ins.Sym)
		}
		return 0, 1, nil
	case OpThrow:
		return 1, 0, nil
	case OpReturn:
		return 1, 0, nil
	case OpReturnVoid:
		return 0, 0, nil
	case OpPop:
		return 1, 0, nil
	case OpDup:
		return 1, 2, nil
	default:
		return 0, 0, fmt.Errorf("unknown opcode %d", ins.Op)
	}
}

// VerifyProgram verifies every method of p.
func VerifyProgram(p *Program) error {
	var err error
	p.EachMethod(func(m *Method) {
		if err == nil {
			err = VerifyMethod(p, m)
		}
	})
	return err
}
