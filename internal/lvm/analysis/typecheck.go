package analysis

import (
	"fmt"
	"slices"

	"repro/internal/lvm"
)

// AbsKind is the abstract type domain of the typed verifier: the LVM value
// kinds plus Any (the join of distinct kinds — host-call results, merged
// branches). There is deliberately no Bottom: unvisited pcs simply carry no
// state.
type AbsKind uint8

// Abstract kinds.
const (
	Any AbsKind = iota
	ANil
	AInt
	ABool
	AStr
	ABytes
	AObj
)

// String names the abstract kind for diagnostics.
func (k AbsKind) String() string {
	switch k {
	case Any:
		return "any"
	case ANil:
		return "nil"
	case AInt:
		return "int"
	case ABool:
		return "bool"
	case AStr:
		return "str"
	case ABytes:
		return "bytes"
	case AObj:
		return "obj"
	default:
		return "invalid"
	}
}

// AbsVal is one abstract operand: a kind plus, for object references whose
// allocation site is known, the class name (used to devirtualise calls in
// capability inference). Class == "" means "some object".
type AbsVal struct {
	K     AbsKind
	Class string
}

func joinVal(a, b AbsVal) AbsVal {
	if a.K != b.K {
		return AbsVal{K: Any}
	}
	if a.K == AObj && a.Class != b.Class {
		return AbsVal{K: AObj}
	}
	return a
}

// typeState is the abstract machine state at one pc: operand stack and local
// slots.
type typeState struct {
	stack  []AbsVal
	locals []AbsVal
}

// typeFlow is the Transfer of the typed stack verifier.
type typeFlow struct {
	p     *lvm.Program
	m     *lvm.Method
	arena []AbsVal  // backs the states Copy returns
	out   typeState // Apply's result, rebuilt on every call
}

// Copy implements Transfer: locals and stack share one array cut from the
// arena, each capped so that nothing appended to one can reach the other.
func (t *typeFlow) Copy(s typeState) typeState {
	nl, ns := len(s.locals), len(s.stack)
	buf := carve(&t.arena, nl+ns)
	copy(buf, s.locals)
	copy(buf[nl:], s.stack)
	return typeState{locals: buf[:nl:nl], stack: buf[nl:]}
}

// carve cuts n zeroed elements off the front of *arena's spare capacity,
// refilling it with a larger block when it runs short, so a Forward run
// allocates its in-states in a few blocks rather than one array per visited
// pc. Once every state cut from an arena is dead, clearing it and truncating
// it to length 0 recycles it.
func carve[T any](arena *[]T, n int) []T {
	a := *arena
	if cap(a)-len(a) < n {
		a = make([]T, 0, max(n, 2*cap(a), 64))
	}
	*arena = a[:len(a)+n]
	return a[len(a) : len(a)+n : len(a)+n]
}

func absKindOf(v lvm.Value) AbsVal {
	switch v.K {
	case lvm.KNil:
		return AbsVal{K: ANil}
	case lvm.KInt:
		return AbsVal{K: AInt}
	case lvm.KBool:
		return AbsVal{K: ABool}
	case lvm.KStr:
		return AbsVal{K: AStr}
	case lvm.KBytes:
		return AbsVal{K: ABytes}
	default:
		return AbsVal{K: AObj}
	}
}

// paramVal maps a declared parameter type name onto the abstract domain.
// Unknown names (the assembler does not restrict them) are Any.
func paramVal(typ string) AbsVal {
	switch typ {
	case "int":
		return AbsVal{K: AInt}
	case "bool":
		return AbsVal{K: ABool}
	case "str", "string":
		return AbsVal{K: AStr}
	case "bytes":
		return AbsVal{K: ABytes}
	case "nil":
		return AbsVal{K: ANil}
	default:
		return AbsVal{K: Any}
	}
}

func (t *typeFlow) Entry() typeState {
	locals := carve(&t.arena, t.m.FrameSize())
	cls := ""
	if t.m.Class != nil {
		cls = t.m.Class.Name
	}
	locals[0] = AbsVal{K: AObj, Class: cls}
	for i, p := range t.m.Params {
		locals[1+i] = paramVal(p)
	}
	for i := 1 + len(t.m.Params); i < len(locals); i++ {
		locals[i] = AbsVal{K: ANil} // uninitialised locals hold nil
	}
	return typeState{locals: locals}
}

func (t *typeFlow) HandlerEntry() typeState {
	// The engine clears the stack and pushes the exception message. The
	// locals could be in any write-state when the exception fired.
	nl := t.m.FrameSize()
	buf := carve(&t.arena, nl+1)
	for i := range nl {
		buf[i] = AbsVal{K: Any}
	}
	buf[nl] = AbsVal{K: AStr}
	return typeState{stack: buf[nl:], locals: buf[:nl:nl]}
}

func (t *typeFlow) Merge(a *typeState, b typeState) (bool, error) {
	if len(a.stack) != len(b.stack) {
		return false, fmt.Errorf("inconsistent stack depth (%d vs %d)", len(a.stack), len(b.stack))
	}
	changed := false
	for i := range a.stack {
		if j := joinVal(a.stack[i], b.stack[i]); j != a.stack[i] {
			a.stack[i] = j
			changed = true
		}
	}
	for i := range a.locals {
		if j := joinVal(a.locals[i], b.locals[i]); j != a.locals[i] {
			a.locals[i] = j
			changed = true
		}
	}
	return changed, nil
}

// intish reports whether v may legally feed integer arithmetic: definite
// strings, byte slices and objects are type confusion (the engine would
// silently read their zero I field), everything else is admitted.
func intish(v AbsVal) bool {
	return v.K != AStr && v.K != ABytes && v.K != AObj
}

// objish reports whether v may be used as an object receiver.
func objish(v AbsVal) bool {
	return v.K == AObj || v.K == Any || v.K == ANil
}

func (t *typeFlow) Apply(pc int, ins lvm.Instr, in typeState) (typeState, error) {
	s := &t.out
	// One instruction pushes at most one value more than it pops.
	s.stack = append(slices.Grow(s.stack[:0], len(in.stack)+1), in.stack...)
	s.locals = append(s.locals[:0], in.locals...)
	pop := func(want int) ([]AbsVal, error) {
		if len(s.stack) < want {
			return nil, fmt.Errorf("stack underflow (%s needs %d, have %d)", ins.Op, want, len(s.stack))
		}
		vals := s.stack[len(s.stack)-want:]
		s.stack = s.stack[:len(s.stack)-want]
		return vals, nil
	}
	push := func(v AbsVal) { s.stack = append(s.stack, v) }

	switch ins.Op {
	case lvm.OpNop:
	case lvm.OpConst:
		if ins.A < 0 || ins.A >= len(t.m.Consts) {
			return *s, fmt.Errorf("const index %d out of range", ins.A)
		}
		push(absKindOf(t.m.Consts[ins.A]))
	case lvm.OpLoad:
		if ins.A < 0 || ins.A >= len(s.locals) {
			return *s, fmt.Errorf("load slot %d out of range", ins.A)
		}
		push(s.locals[ins.A])
	case lvm.OpStore:
		v, err := pop(1)
		if err != nil {
			return *s, err
		}
		if ins.A < 0 || ins.A >= len(s.locals) {
			return *s, fmt.Errorf("store slot %d out of range", ins.A)
		}
		s.locals[ins.A] = v[0]
	case lvm.OpGetField:
		v, err := pop(1)
		if err != nil {
			return *s, err
		}
		if !objish(v[0]) {
			return *s, fmt.Errorf("getfield on %s", v[0].K)
		}
		push(AbsVal{K: Any})
	case lvm.OpSetField:
		v, err := pop(2)
		if err != nil {
			return *s, err
		}
		if !objish(v[0]) {
			return *s, fmt.Errorf("setfield on %s", v[0].K)
		}
	case lvm.OpGetSelf:
		push(AbsVal{K: Any})
	case lvm.OpSetSelf:
		if _, err := pop(1); err != nil {
			return *s, err
		}
	case lvm.OpAdd, lvm.OpSub, lvm.OpMul, lvm.OpDiv, lvm.OpMod:
		v, err := pop(2)
		if err != nil {
			return *s, err
		}
		if !intish(v[0]) || !intish(v[1]) {
			return *s, fmt.Errorf("%s on %s, %s", ins.Op, v[0].K, v[1].K)
		}
		push(AbsVal{K: AInt})
	case lvm.OpNeg:
		v, err := pop(1)
		if err != nil {
			return *s, err
		}
		if !intish(v[0]) {
			return *s, fmt.Errorf("neg on %s", v[0].K)
		}
		push(AbsVal{K: AInt})
	case lvm.OpEq, lvm.OpNe:
		if _, err := pop(2); err != nil {
			return *s, err
		}
		push(AbsVal{K: ABool})
	case lvm.OpLt, lvm.OpLe, lvm.OpGt, lvm.OpGe:
		v, err := pop(2)
		if err != nil {
			return *s, err
		}
		a, b := v[0], v[1]
		if a.K == ABytes || a.K == AObj || b.K == ABytes || b.K == AObj {
			return *s, fmt.Errorf("%s on %s, %s", ins.Op, a.K, b.K)
		}
		// Ordering a definite string against a definite number silently
		// compares the string's zero I field — type confusion.
		aStr, bStr := a.K == AStr, b.K == AStr
		aNum, bNum := a.K == AInt || a.K == ABool, b.K == AInt || b.K == ABool
		if (aStr && bNum) || (aNum && bStr) {
			return *s, fmt.Errorf("%s on %s, %s", ins.Op, a.K, b.K)
		}
		push(AbsVal{K: ABool})
	case lvm.OpAnd, lvm.OpOr:
		if _, err := pop(2); err != nil {
			return *s, err
		}
		push(AbsVal{K: ABool})
	case lvm.OpNot:
		if _, err := pop(1); err != nil {
			return *s, err
		}
		push(AbsVal{K: ABool})
	case lvm.OpConcat:
		if _, err := pop(2); err != nil {
			return *s, err
		}
		push(AbsVal{K: AStr})
	case lvm.OpLen:
		v, err := pop(1)
		if err != nil {
			return *s, err
		}
		switch v[0].K {
		case AStr, ABytes, Any, ANil:
			// nil throws a catchable exception at run time; definite ints,
			// bools and objects are rejected here.
		default:
			return *s, fmt.Errorf("len on %s", v[0].K)
		}
		push(AbsVal{K: AInt})
	case lvm.OpJump:
		// no stack effect
	case lvm.OpJumpFalse:
		if _, err := pop(1); err != nil {
			return *s, err
		}
	case lvm.OpCall:
		if ins.B < 0 {
			return *s, fmt.Errorf("negative argc")
		}
		v, err := pop(ins.B + 1)
		if err != nil {
			return *s, err
		}
		recv := v[0]
		if !objish(recv) {
			return *s, fmt.Errorf("call %s on %s", ins.Sym, recv.K)
		}
		if recv.K == AObj && recv.Class != "" && t.p != nil {
			if c := t.p.Class(recv.Class); c != nil {
				if c.Methods[ins.Sym] == nil {
					return *s, fmt.Errorf("no method %s.%s", recv.Class, ins.Sym)
				}
			}
		}
		push(AbsVal{K: Any})
	case lvm.OpHostCall:
		if ins.B < 0 {
			return *s, fmt.Errorf("negative argc")
		}
		if _, err := pop(ins.B); err != nil {
			return *s, err
		}
		push(AbsVal{K: Any})
	case lvm.OpNew:
		if t.p != nil && t.p.Class(ins.Sym) == nil {
			return *s, fmt.Errorf("unknown class %q", ins.Sym)
		}
		push(AbsVal{K: AObj, Class: ins.Sym})
	case lvm.OpThrow:
		if _, err := pop(1); err != nil {
			return *s, err
		}
	case lvm.OpReturn:
		if _, err := pop(1); err != nil {
			return *s, err
		}
	case lvm.OpReturnVoid:
	case lvm.OpPop:
		if _, err := pop(1); err != nil {
			return *s, err
		}
	case lvm.OpDup:
		v, err := pop(1)
		if err != nil {
			return *s, err
		}
		push(v[0])
		push(v[0])
	default:
		return *s, fmt.Errorf("unknown opcode %d", ins.Op)
	}
	return *s, nil
}

// TypeInfo is the result of typed verification: the abstract in-state of
// every pc (for capability inference's devirtualisation) plus the visited
// mask.
type TypeInfo struct {
	CFG     *CFG
	In      []typeState
	Visited []bool
}

// ReceiverAt returns the abstract receiver of the OpCall at pc, if typed
// verification reached that pc.
func (ti *TypeInfo) ReceiverAt(pc int) (AbsVal, bool) {
	if pc < 0 || pc >= len(ti.In) || !ti.Visited[pc] {
		return AbsVal{}, false
	}
	ins := ti.CFG.Method.Code[pc]
	if ins.Op != lvm.OpCall {
		return AbsVal{}, false
	}
	st := ti.In[pc].stack
	idx := len(st) - ins.B - 1
	if idx < 0 {
		return AbsVal{}, false
	}
	return st[idx], true
}

// TypeCheck runs the typed stack verifier over m: abstract interpretation of
// value kinds across every control-flow path, rejecting type-confused
// operand use (arithmetic on strings, field access on integers, calls on
// non-objects), stack depth inconsistencies and bad operands — strictly
// stronger than lvm.VerifyMethod's depth-only pass. Dead instructions still
// get their operands validated.
func TypeCheck(p *lvm.Program, m *lvm.Method) (*TypeInfo, error) {
	if err := checkFrame(m); err != nil {
		return nil, err
	}
	g, err := BuildCFG(m)
	if err != nil {
		return nil, err
	}
	// Room for every pc's frame plus a shallow stack: most methods need no
	// second arena block.
	tf := &typeFlow{p: p, m: m, arena: make([]AbsVal, 0, len(m.Code)*(m.FrameSize()+2))}
	in, seen, err := Forward[typeState](g, tf)
	if err != nil {
		return nil, err
	}
	// Dead code never executes but still travels with the extension: validate
	// its operands so a rejected instruction cannot hide behind a jump.
	for pc, visited := range seen {
		if visited {
			continue
		}
		if err := validateOperands(p, m, m.Code[pc]); err != nil {
			return nil, fmt.Errorf("pc %d (unreachable): %w", pc, err)
		}
	}
	return &TypeInfo{CFG: g, In: in, Visited: seen}, nil
}

// maxFrame bounds a method's frame (self, params and locals), and
// maxFrameCells its code length times its frame size: the verifier and the
// taint analysis keep an abstract frame per instruction, so a method past
// either bound is refused before anything is sized from it.
const (
	maxFrame      = 1 << 16
	maxFrameCells = 1 << 20
)

func checkFrame(m *lvm.Method) error {
	frame := m.FrameSize()
	if m.NumLocals < 0 || frame > maxFrame {
		return fmt.Errorf("frame of %d slots (%d locals) out of range 1..%d", frame, m.NumLocals, maxFrame)
	}
	if len(m.Code) > maxFrameCells/frame {
		return fmt.Errorf("%d instructions of %d frame slots exceed %d cells", len(m.Code), frame, maxFrameCells)
	}
	return nil
}

// validateOperands checks an instruction's static operands without abstract
// state (used for unreachable instructions).
func validateOperands(p *lvm.Program, m *lvm.Method, ins lvm.Instr) error {
	switch ins.Op {
	case lvm.OpConst:
		if ins.A < 0 || ins.A >= len(m.Consts) {
			return fmt.Errorf("const index %d out of range", ins.A)
		}
	case lvm.OpLoad, lvm.OpStore:
		if ins.A < 0 || ins.A >= m.FrameSize() {
			return fmt.Errorf("%s slot %d out of range", ins.Op, ins.A)
		}
	case lvm.OpCall, lvm.OpHostCall:
		if ins.B < 0 {
			return fmt.Errorf("negative argc")
		}
	case lvm.OpNew:
		if p != nil && p.Class(ins.Sym) == nil {
			return fmt.Errorf("unknown class %q", ins.Sym)
		}
	}
	return nil
}
