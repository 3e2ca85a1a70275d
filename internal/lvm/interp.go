package lvm

import (
	"errors"
	"fmt"
)

// Host is the gateway through which LVM code reaches the outside world. The
// sandbox package wraps a Host with capability checks before handing it to
// foreign extension code.
//
// args is valid only during the call: the engines pass a view of the
// caller's operand stack, which the next instruction overwrites. A host that
// keeps arguments past its return copies the Values it keeps (a Value itself
// is safe to keep; the slice is not).
type Host interface {
	HostCall(name string, args []Value) (Value, error)
}

// HostFunc is one host function, resolved ahead of the calls that use it.
// Its args follow the Host contract: valid only during the call.
type HostFunc func(args []Value) (Value, error)

// PrecheckedHost is a Host that can prove, ahead of execution, that specific
// functions need no per-dispatch policy check. Prechecked returns the
// function to dispatch fn through directly — skipping the wrapper's checks —
// or nil when fn still requires the checked path. The JIT resolves it once
// per call site at compile time, so statically-proven host calls bypass the
// capability gate and the name lookup entirely.
type PrecheckedHost interface {
	Host
	Prechecked(fn string) HostFunc
}

// HostMap is a simple Host backed by a map of named functions.
type HostMap map[string]HostFunc

// HostCall implements Host.
func (h HostMap) HostCall(name string, args []Value) (Value, error) {
	fn, ok := h[name]
	if !ok {
		return Nil(), &Thrown{Msg: "unknown host function: " + name}
	}
	return fn(args)
}

// Thrown is an LVM-level exception. It can be caught by a handler table
// entry; any other Go error aborts execution outright.
type Thrown struct {
	Msg string
}

// Error implements error.
func (t *Thrown) Error() string { return "lvm: thrown: " + t.Msg }

// Throwf raises a formatted LVM exception.
func Throwf(format string, args ...any) error {
	return &Thrown{Msg: fmt.Sprintf(format, args...)}
}

// VM-level (uncatchable) errors.
var (
	// ErrStepBudget is returned when execution exceeds the step budget.
	ErrStepBudget = errors.New("lvm: step budget exhausted")
	// ErrStackDepth is returned when the call stack exceeds the limit.
	ErrStackDepth = errors.New("lvm: call stack too deep")
)

// DefaultMaxSteps bounds runaway bytecode unless callers override it.
const DefaultMaxSteps = 10_000_000

// DefaultMaxDepth bounds recursive LVM calls.
const DefaultMaxDepth = 256

// Interp executes LVM bytecode directly, one switch per instruction, without
// JIT compilation and therefore without any weaving hooks. Nothing ships on
// it: application code and extension advice both run on the closure JIT
// (internal/jit). The interpreter is the reference semantics the JIT is
// tested and fuzzed against, and the interpreted baseline of the engine
// comparison benchmark.
type Interp struct {
	Prog     *Program
	Host     Host
	MaxSteps int64
	MaxDepth int
}

// NewInterp returns an interpreter over prog using host for host calls.
//
//lint:allow shipped (reference semantics: the JIT is tested and fuzzed against it)
func NewInterp(prog *Program, host Host) *Interp {
	return &Interp{Prog: prog, Host: host, MaxSteps: DefaultMaxSteps, MaxDepth: DefaultMaxDepth}
}

// Invoke runs m with the given receiver and arguments and returns the result.
// A *Thrown error indicates an uncaught LVM exception.
func (in *Interp) Invoke(m *Method, self *Object, args []Value) (Value, error) {
	steps := in.MaxSteps
	if steps <= 0 {
		steps = DefaultMaxSteps
	}
	return in.run(m, self, args, &steps, 0)
}

func (in *Interp) run(m *Method, self *Object, args []Value, steps *int64, depth int) (Value, error) {
	if depth > in.maxDepth() {
		return Nil(), ErrStackDepth
	}
	if len(args) != m.Arity() {
		return Nil(), Throwf("%s: want %d args, got %d", m, m.Arity(), len(args))
	}
	locals := make([]Value, m.FrameSize())
	locals[0] = Obj(self)
	copy(locals[1:], args)
	stack := make([]Value, 0, 8)

	pc := 0
	code := m.Code
	for pc < len(code) {
		*steps--
		if *steps < 0 {
			return Nil(), ErrStepBudget
		}
		ins := code[pc]
		var err error
		switch ins.Op {
		case OpNop:
		case OpConst:
			stack = append(stack, m.Consts[ins.A])
		case OpLoad:
			stack = append(stack, locals[ins.A])
		case OpStore:
			locals[ins.A] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case OpGetField:
			o := stack[len(stack)-1]
			if o.K != KObj || o.O == nil {
				err = Throwf("getfield on non-object")
				break
			}
			stack[len(stack)-1] = o.O.Get(ins.A)
		case OpSetField:
			v := stack[len(stack)-1]
			o := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			if o.K != KObj || o.O == nil {
				err = Throwf("setfield on non-object")
				break
			}
			o.O.Set(ins.A, v)
		case OpGetSelf:
			if self == nil {
				err = Throwf("getself with nil self")
				break
			}
			stack = append(stack, self.Get(ins.A))
		case OpSetSelf:
			if self == nil {
				err = Throwf("setself with nil self")
				break
			}
			self.Set(ins.A, stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			var r int64
			r, err = arith(ins.Op, a.I, b.I)
			stack[len(stack)-1] = Int(r)
		case OpNeg:
			stack[len(stack)-1] = Int(-stack[len(stack)-1].I)
		case OpEq, OpNe:
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			eq := a.Equal(b)
			if ins.Op == OpNe {
				eq = !eq
			}
			stack[len(stack)-1] = Bool(eq)
		case OpLt, OpLe, OpGt, OpGe:
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = Bool(compare(ins.Op, a, b))
		case OpAnd:
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = Bool(a.AsBool() && b.AsBool())
		case OpOr:
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = Bool(a.AsBool() || b.AsBool())
		case OpNot:
			stack[len(stack)-1] = Bool(!stack[len(stack)-1].AsBool())
		case OpConcat:
			b := stack[len(stack)-1]
			a := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = Str(a.String() + b.String())
		case OpLen:
			v := stack[len(stack)-1]
			switch v.K {
			case KStr:
				stack[len(stack)-1] = Int(int64(len(v.S)))
			case KBytes:
				stack[len(stack)-1] = Int(int64(len(v.B)))
			default:
				err = Throwf("len on %s", v.K)
			}
		case OpJump:
			pc = ins.A
			continue
		case OpJumpFalse:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !v.AsBool() {
				pc = ins.A
				continue
			}
		case OpCall:
			n := ins.B
			if len(stack) < n+1 {
				err = Throwf("call %s: stack underflow", ins.Sym)
				break
			}
			callArgs := make([]Value, n)
			copy(callArgs, stack[len(stack)-n:])
			recv := stack[len(stack)-n-1]
			stack = stack[:len(stack)-n-1]
			if recv.K != KObj || recv.O == nil {
				err = Throwf("call %s on non-object", ins.Sym)
				break
			}
			callee := recv.O.Class.Methods[ins.Sym]
			if callee == nil {
				err = Throwf("no method %s.%s", recv.O.Class.Name, ins.Sym)
				break
			}
			var r Value
			r, err = in.run(callee, recv.O, callArgs, steps, depth+1)
			if err == nil {
				stack = append(stack, r)
			}
		case OpHostCall:
			n := ins.B
			if len(stack) < n {
				err = Throwf("hostcall %s: stack underflow", ins.Sym)
				break
			}
			callArgs := make([]Value, n)
			copy(callArgs, stack[len(stack)-n:])
			stack = stack[:len(stack)-n]
			if in.Host == nil {
				err = Throwf("no host environment for %s", ins.Sym)
				break
			}
			var r Value
			if direct := prechecked(in.Host, ins.Sym); direct != nil {
				r, err = direct(callArgs)
			} else {
				r, err = in.Host.HostCall(ins.Sym, callArgs)
			}
			if err == nil {
				stack = append(stack, r)
			}
		case OpNew:
			cls := in.Prog.Class(ins.Sym)
			if cls == nil {
				err = Throwf("unknown class %s", ins.Sym)
				break
			}
			stack = append(stack, Obj(cls.New()))
		case OpThrow:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			err = &Thrown{Msg: v.String()}
		case OpReturn:
			return stack[len(stack)-1], nil
		case OpReturnVoid:
			return Nil(), nil
		case OpPop:
			stack = stack[:len(stack)-1]
		case OpDup:
			stack = append(stack, stack[len(stack)-1])
		default:
			return Nil(), fmt.Errorf("lvm: bad opcode %d at %s pc=%d", ins.Op, m, pc)
		}
		if err != nil {
			var thrown *Thrown
			if errors.As(err, &thrown) {
				if h, ok := findHandler(m.Handlers, pc); ok {
					stack = stack[:0]
					stack = append(stack, Str(thrown.Msg))
					pc = h.Target
					continue
				}
			}
			return Nil(), err
		}
		pc++
	}
	return Nil(), nil
}

// prechecked returns host's direct function for fn, or nil when fn takes
// the checked path.
func prechecked(host Host, fn string) HostFunc {
	if ph, ok := host.(PrecheckedHost); ok {
		return ph.Prechecked(fn)
	}
	return nil
}

func (in *Interp) maxDepth() int {
	if in.MaxDepth > 0 {
		return in.MaxDepth
	}
	return DefaultMaxDepth
}

func arith(op Op, a, b int64) (int64, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		if b == 0 {
			return 0, Throwf("divide by zero")
		}
		return a / b, nil
	case OpMod:
		if b == 0 {
			return 0, Throwf("divide by zero")
		}
		return a % b, nil
	}
	return 0, fmt.Errorf("lvm: not arithmetic: %s", op)
}

func compare(op Op, a, b Value) bool {
	if a.K == KStr && b.K == KStr {
		switch op {
		case OpLt:
			return a.S < b.S
		case OpLe:
			return a.S <= b.S
		case OpGt:
			return a.S > b.S
		case OpGe:
			return a.S >= b.S
		}
	}
	switch op {
	case OpLt:
		return a.I < b.I
	case OpLe:
		return a.I <= b.I
	case OpGt:
		return a.I > b.I
	case OpGe:
		return a.I >= b.I
	}
	return false
}

func findHandler(hs []Handler, pc int) (Handler, bool) {
	for _, h := range hs {
		if pc >= h.Start && pc < h.End {
			return h, true
		}
	}
	return Handler{}, false
}
