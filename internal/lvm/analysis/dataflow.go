package analysis

import (
	"fmt"

	"repro/internal/lvm"
)

// Transfer defines one forward dataflow problem over a method's bytecode.
// States flow instruction by instruction; Merge joins states at control-flow
// joins and reports whether the merged state changed (driving the fixpoint).
//
// Forward owns every state it stores: Entry, HandlerEntry and Copy return
// states that share no storage with any other, and Merge updates a stored
// state in place. Apply may build its result in scratch storage it reuses on
// every call, and Forward copies only what it keeps. So a step allocates
// nothing unless a pc's in-state is new or grows.
type Transfer[S any] interface {
	// Entry is the abstract state at pc 0.
	Entry() S
	// HandlerEntry is the abstract state at an exception handler's target
	// (the LVM clears the stack and pushes the exception message there).
	HandlerEntry() S
	// Apply transforms the state across one instruction. Its result may
	// live in storage Apply reuses on its next call. An error rejects the
	// method (type confusion, stack underflow, bad operand).
	Apply(pc int, ins lvm.Instr, s S) (S, error)
	// Merge joins b into *a and reports whether *a changed. An error rejects
	// the method (e.g. inconsistent stack depth).
	Merge(a *S, b S) (bool, error)
	// Copy returns a copy of s that shares no mutable storage with it.
	Copy(s S) S
}

// Forward runs t to a fixpoint over g and returns the in-state of every pc
// plus a visited mask (unvisited pcs hold the zero state). Handler targets
// are seeded with HandlerEntry like the depth verifier seeds them, so the
// two verdicts stay comparable.
//
// Errors are judged only against the fixpoint states: Forward keeps each
// pc's error from its last Apply and reports the first pc whose error
// stands. That last Apply always ran on the pc's final in-state, because a
// pc is queued again whenever its in-state changes.
func Forward[S any](g *CFG, t Transfer[S]) ([]S, []bool, error) {
	in, seen, errs, err := forward(g, t)
	if err != nil {
		return nil, nil, err
	}
	for pc, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("pc %d: %w", pc, err)
		}
	}
	return in, seen, nil
}

// forward is Forward's fixpoint. It returns the states and each visited
// pc's last Apply error (errs is nil when there were none); err is set only
// when a Merge failed, which ends the run at once.
func forward[S any](g *CFG, t Transfer[S]) (in []S, seen []bool, errs []error, err error) {
	m := g.Method
	n := len(m.Code)
	in = make([]S, n)
	seen = make([]bool, n)

	queue := make([]int, 0, n)
	// join brings s into pc's in-state; owned says Forward may keep s itself
	// rather than a copy.
	join := func(pc int, s S, owned bool) error {
		if !seen[pc] {
			seen[pc] = true
			if !owned {
				s = t.Copy(s)
			}
			in[pc] = s
			queue = append(queue, pc)
			return nil
		}
		changed, err := t.Merge(&in[pc], s)
		if err != nil {
			return fmt.Errorf("pc %d: %w", pc, err)
		}
		if changed {
			queue = append(queue, pc)
		}
		return nil
	}

	if err := join(0, t.Entry(), true); err != nil {
		return nil, nil, nil, err
	}
	for _, h := range m.Handlers {
		if err := join(h.Target, t.HandlerEntry(), true); err != nil {
			return nil, nil, nil, err
		}
	}

	for head := 0; head < len(queue); head++ {
		pc := queue[head]
		ins := m.Code[pc]
		out, err := t.Apply(pc, ins, in[pc])
		if errs != nil || err != nil {
			if errs == nil {
				errs = make([]error, n)
			}
			errs[pc] = err
		}
		if err != nil {
			// The in-state may still be refined (e.g. a definite str joined
			// with an int becomes any, which arithmetic accepts); don't
			// propagate now, and leave rejection to the fixpoint check so
			// transient states can't cause spurious errors.
			continue
		}
		switch ins.Op {
		case lvm.OpReturn, lvm.OpReturnVoid, lvm.OpThrow:
			// terminal
		case lvm.OpJump:
			err = join(ins.A, out, false)
		case lvm.OpJumpFalse:
			if err = join(ins.A, out, false); err == nil {
				err = join(pc+1, out, false)
			}
		default:
			err = join(pc+1, out, false)
		}
		if err != nil {
			return nil, nil, nil, err
		}
	}
	return in, seen, errs, nil
}
