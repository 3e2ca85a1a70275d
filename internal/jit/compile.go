package jit

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/aop"
	"repro/internal/lvm"
	"repro/internal/weave"
)

// compile translates a method's bytecode into a closure chain and, when a
// weaver is attached, registers its join-point sites and plants stubs.
func (m *Machine) compile(meth *lvm.Method) (*compiled, error) {
	// Verified code gets a stack of exactly its depth; code the verifier
	// rejects (the JIT runs unverified local programs too) starts from a
	// generous guess and grows on demand.
	maxStack, err := lvm.MaxStack(m.Prog, meth)
	if err != nil {
		maxStack = len(meth.Code) + 2
	}
	c := &compiled{
		m:        meth,
		sig:      aop.SignatureOf(meth),
		steps:    make([]stepFn, len(meth.Code)),
		arity:    meth.Arity(),
		nLocals:  meth.FrameSize(),
		maxStack: maxStack,
	}
	if m.Weaver != nil {
		c.entrySite = m.Weaver.RegisterMethodSite(aop.MethodEntry, c.sig)
		c.exitSite = m.Weaver.RegisterMethodSite(aop.MethodExit, c.sig)
		c.throwSite = m.Weaver.RegisterMethodSite(aop.ExceptionThrow, c.sig)
		if len(meth.Handlers) > 0 {
			c.handlerSite = m.Weaver.RegisterMethodSite(aop.ExceptionHandler, c.sig)
		}
	}
	for pc, ins := range meth.Code {
		step, err := m.compileInstr(c, pc, ins)
		if err != nil {
			return nil, fmt.Errorf("jit: %s pc=%d: %w", meth, pc, err)
		}
		c.steps[pc] = step
	}
	return c, nil
}

// callSite is the inline cache of one call instruction: the receiver class
// it last saw and that class's compiled callee.
type callSite struct {
	name string
	last atomic.Pointer[callTarget]
}

type callTarget struct {
	cls *lvm.Class
	cc  *compiled
}

// target returns the compiled method a call on an instance of cls reaches,
// filling the cache on a miss.
func (s *callSite) target(m *Machine, cls *lvm.Class) (*compiled, error) {
	if t := s.last.Load(); t != nil && t.cls == cls {
		return t.cc, nil
	}
	callee := cls.Methods[s.name]
	if callee == nil {
		return nil, lvm.Throwf("no method %s.%s", cls.Name, s.name)
	}
	cc, err := m.compiledFor(callee)
	if err != nil {
		return nil, err
	}
	s.last.Store(&callTarget{cls: cls, cc: cc})
	return cc, nil
}

func (m *Machine) compileInstr(c *compiled, pc int, ins lvm.Instr) (stepFn, error) {
	meth := c.m
	next := pc + 1
	switch ins.Op {
	case lvm.OpNop:
		return func(e *env, fr *frame, depth int) (int, error) { return next, nil }, nil

	case lvm.OpConst:
		if ins.A < 0 || ins.A >= len(meth.Consts) {
			return nil, fmt.Errorf("const index %d out of range", ins.A)
		}
		v := meth.Consts[ins.A]
		return func(e *env, fr *frame, depth int) (int, error) {
			fr.push(v)
			return next, nil
		}, nil

	case lvm.OpLoad:
		slot := ins.A
		if slot < 0 || slot >= meth.FrameSize() {
			return nil, fmt.Errorf("load slot %d out of range", slot)
		}
		return func(e *env, fr *frame, depth int) (int, error) {
			fr.push(fr.locals[slot])
			return next, nil
		}, nil

	case lvm.OpStore:
		slot := ins.A
		if slot < 0 || slot >= meth.FrameSize() {
			return nil, fmt.Errorf("store slot %d out of range", slot)
		}
		return func(e *env, fr *frame, depth int) (int, error) {
			fr.locals[slot] = fr.pop()
			return next, nil
		}, nil

	case lvm.OpGetField, lvm.OpGetSelf:
		idx := ins.A
		onSelf := ins.Op == lvm.OpGetSelf
		var site *weave.Site
		if m.Weaver != nil {
			class, field := fieldNames(meth, ins)
			site = m.Weaver.RegisterFieldSite(aop.FieldGet, class, field)
		}
		fieldName := ins.Sym
		return func(e *env, fr *frame, depth int) (int, error) {
			var obj *lvm.Object
			if onSelf {
				if obj = fr.locals[0].O; obj == nil {
					return 0, lvm.Throwf("getself with nil self")
				}
			} else {
				top := fr.pop()
				if top.K == lvm.KObj {
					obj = top.O
				}
				if obj == nil {
					return 0, lvm.Throwf("getfield on non-object")
				}
			}
			v := obj.Get(idx)
			if site != nil && site.Active() {
				ctx := weave.GetContext()
				ctx.Kind = aop.FieldGet
				ctx.Sig = aop.Signature{Class: obj.Class.Name}
				ctx.Field = fieldName
				ctx.Self = obj
				ctx.Result = v
				err := site.Dispatch(ctx)
				v = ctx.Result
				weave.PutContext(ctx)
				if err != nil {
					return 0, err
				}
			}
			fr.push(v)
			return next, nil
		}, nil

	case lvm.OpSetField, lvm.OpSetSelf:
		idx := ins.A
		onSelf := ins.Op == lvm.OpSetSelf
		var site *weave.Site
		if m.Weaver != nil {
			class, field := fieldNames(meth, ins)
			site = m.Weaver.RegisterFieldSite(aop.FieldSet, class, field)
		}
		fieldName := ins.Sym
		return func(e *env, fr *frame, depth int) (int, error) {
			vsp := fr.sp - 1 // the value's slot
			v := fr.pop()
			var obj *lvm.Object
			if onSelf {
				if obj = fr.locals[0].O; obj == nil {
					return 0, lvm.Throwf("setself with nil self")
				}
			} else {
				top := fr.pop()
				if top.K == lvm.KObj {
					obj = top.O
				}
				if obj == nil {
					return 0, lvm.Throwf("setfield on non-object")
				}
			}
			if site != nil && site.Active() {
				ctx := weave.GetContext()
				ctx.Kind = aop.FieldSet
				ctx.Sig = aop.Signature{Class: obj.Class.Name}
				ctx.Field = fieldName
				ctx.Self = obj
				// The popped value's slot is the one-element argument list.
				ctx.Args = fr.stack[vsp : vsp+1 : vsp+1]
				err := site.Dispatch(ctx)
				v = ctx.Args[0]
				weave.PutContext(ctx)
				if err != nil {
					return 0, err
				}
			}
			obj.Set(idx, v)
			return next, nil
		}, nil

	case lvm.OpAdd, lvm.OpSub, lvm.OpMul:
		op := ins.Op
		return func(e *env, fr *frame, depth int) (int, error) {
			sp := fr.sp - 1
			a, b := fr.stack[sp-1].I, fr.stack[sp].I
			var r int64
			switch op {
			case lvm.OpAdd:
				r = a + b
			case lvm.OpSub:
				r = a - b
			default:
				r = a * b
			}
			fr.stack[sp-1] = lvm.Int(r)
			fr.sp = sp
			return next, nil
		}, nil

	case lvm.OpDiv, lvm.OpMod:
		isDiv := ins.Op == lvm.OpDiv
		return func(e *env, fr *frame, depth int) (int, error) {
			sp := fr.sp - 1
			a, b := fr.stack[sp-1].I, fr.stack[sp].I
			fr.sp = sp
			if b == 0 {
				return 0, lvm.Throwf("divide by zero")
			}
			if isDiv {
				fr.stack[sp-1] = lvm.Int(a / b)
			} else {
				fr.stack[sp-1] = lvm.Int(a % b)
			}
			return next, nil
		}, nil

	case lvm.OpNeg:
		return func(e *env, fr *frame, depth int) (int, error) {
			top := &fr.stack[fr.sp-1]
			*top = lvm.Int(-top.I)
			return next, nil
		}, nil

	case lvm.OpEq, lvm.OpNe:
		negate := ins.Op == lvm.OpNe
		return func(e *env, fr *frame, depth int) (int, error) {
			sp := fr.sp - 1
			eq := fr.stack[sp-1].Equal(fr.stack[sp])
			fr.stack[sp-1] = lvm.Bool(eq != negate)
			fr.sp = sp
			return next, nil
		}, nil

	case lvm.OpLt, lvm.OpLe, lvm.OpGt, lvm.OpGe:
		op := ins.Op
		return func(e *env, fr *frame, depth int) (int, error) {
			sp := fr.sp - 1
			fr.stack[sp-1] = lvm.Bool(compareValues(op, fr.stack[sp-1], fr.stack[sp]))
			fr.sp = sp
			return next, nil
		}, nil

	case lvm.OpAnd, lvm.OpOr:
		isAnd := ins.Op == lvm.OpAnd
		return func(e *env, fr *frame, depth int) (int, error) {
			sp := fr.sp - 1
			a, b := fr.stack[sp-1].AsBool(), fr.stack[sp].AsBool()
			if isAnd {
				fr.stack[sp-1] = lvm.Bool(a && b)
			} else {
				fr.stack[sp-1] = lvm.Bool(a || b)
			}
			fr.sp = sp
			return next, nil
		}, nil

	case lvm.OpNot:
		return func(e *env, fr *frame, depth int) (int, error) {
			top := &fr.stack[fr.sp-1]
			*top = lvm.Bool(!top.AsBool())
			return next, nil
		}, nil

	case lvm.OpConcat:
		return func(e *env, fr *frame, depth int) (int, error) {
			sp := fr.sp - 1
			fr.stack[sp-1] = lvm.Str(concat(fr.stack[sp-1], fr.stack[sp]))
			fr.sp = sp
			return next, nil
		}, nil

	case lvm.OpLen:
		return func(e *env, fr *frame, depth int) (int, error) {
			top := &fr.stack[fr.sp-1]
			switch top.K {
			case lvm.KStr:
				*top = lvm.Int(int64(len(top.S)))
			case lvm.KBytes:
				*top = lvm.Int(int64(len(top.B)))
			default:
				return 0, lvm.Throwf("len on %s", top.K)
			}
			return next, nil
		}, nil

	case lvm.OpJump:
		target := ins.A
		return func(e *env, fr *frame, depth int) (int, error) { return target, nil }, nil

	case lvm.OpJumpFalse:
		target := ins.A
		return func(e *env, fr *frame, depth int) (int, error) {
			if !fr.pop().AsBool() {
				return target, nil
			}
			return next, nil
		}, nil

	case lvm.OpCall:
		site := &callSite{name: ins.Sym}
		argc := ins.B
		return func(e *env, fr *frame, depth int) (int, error) {
			sp := fr.sp
			if sp < argc+1 {
				return 0, lvm.Throwf("call %s: stack underflow", site.name)
			}
			base := sp - argc - 1
			recv := fr.stack[base]
			fr.sp = base
			if recv.K != lvm.KObj || recv.O == nil {
				return 0, lvm.Throwf("call %s on non-object", site.name)
			}
			cc, err := site.target(e.m, recv.O.Class)
			if err != nil {
				return 0, err
			}
			// The callee reads its arguments in place: the caller's slots
			// stay untouched until the call returns.
			r, err := cc.invoke(e, recv.O, fr.stack[base+1:sp:sp], depth+1)
			if err != nil {
				return 0, err
			}
			fr.push(r)
			return next, nil
		}, nil

	case lvm.OpHostCall:
		name := ins.Sym
		argc := ins.B
		// Devirtualise statically-proven calls at compile time: the closure
		// binds the resolved host function directly, so the per-dispatch
		// capability gate and the name lookup disappear from the compiled
		// code. Proofs must be established (sandbox.Host.Prove) before the
		// method is compiled.
		var direct lvm.HostFunc
		if ph, ok := m.Host.(lvm.PrecheckedHost); ok {
			direct = ph.Prechecked(name)
		}
		return func(e *env, fr *frame, depth int) (int, error) {
			sp := fr.sp
			if sp < argc {
				return 0, lvm.Throwf("hostcall %s: stack underflow", name)
			}
			base := sp - argc
			fr.sp = base
			args := fr.stack[base:sp:sp]
			var r lvm.Value
			var err error
			if direct != nil {
				r, err = direct(args)
			} else if host := e.m.Host; host != nil {
				r, err = host.HostCall(name, args)
			} else {
				return 0, lvm.Throwf("no host environment for %s", name)
			}
			if err != nil {
				return 0, err
			}
			fr.push(r)
			return next, nil
		}, nil

	case lvm.OpNew:
		cls := m.Prog.Class(ins.Sym)
		if cls == nil {
			return nil, fmt.Errorf("unknown class %q", ins.Sym)
		}
		return func(e *env, fr *frame, depth int) (int, error) {
			fr.push(lvm.Obj(cls.New()))
			return next, nil
		}, nil

	case lvm.OpThrow:
		return func(e *env, fr *frame, depth int) (int, error) {
			return 0, &lvm.Thrown{Msg: fr.pop().String()}
		}, nil

	case lvm.OpReturn:
		return func(e *env, fr *frame, depth int) (int, error) {
			fr.ret = fr.pop()
			return retPC, nil
		}, nil

	case lvm.OpReturnVoid:
		return func(e *env, fr *frame, depth int) (int, error) {
			fr.ret = lvm.Value{}
			return retPC, nil
		}, nil

	case lvm.OpPop:
		return func(e *env, fr *frame, depth int) (int, error) {
			fr.sp--
			return next, nil
		}, nil

	case lvm.OpDup:
		return func(e *env, fr *frame, depth int) (int, error) {
			fr.push(fr.stack[fr.sp-1])
			return next, nil
		}, nil
	}
	return nil, fmt.Errorf("unsupported opcode %s", ins.Op)
}

// concat renders a+b as lvm.Value.String does. Ints and bools are
// formatted in place, so the result is the only allocation.
func concat(a, b lvm.Value) string {
	var abuf, bbuf [20]byte
	ad, aok := digits(abuf[:0], a)
	bd, bok := digits(bbuf[:0], b)
	if !aok && !bok {
		return a.String() + b.String()
	}
	var as, bs string
	if !aok {
		as = a.String()
	}
	if !bok {
		bs = b.String()
	}
	var sb strings.Builder
	sb.Grow(len(ad) + len(as) + len(bd) + len(bs))
	sb.Write(ad)
	sb.WriteString(as)
	sb.Write(bd)
	sb.WriteString(bs)
	return sb.String()
}

// digits appends the text of an int or a bool to buf; ok is false for any
// other kind.
func digits(buf []byte, v lvm.Value) (text []byte, ok bool) {
	switch v.K {
	case lvm.KInt:
		return strconv.AppendInt(buf, v.I, 10), true
	case lvm.KBool:
		return strconv.AppendBool(buf, v.I != 0), true
	}
	return nil, false
}

func compareValues(op lvm.Op, a, b lvm.Value) bool {
	if a.K == lvm.KStr && b.K == lvm.KStr {
		switch op {
		case lvm.OpLt:
			return a.S < b.S
		case lvm.OpLe:
			return a.S <= b.S
		case lvm.OpGt:
			return a.S > b.S
		case lvm.OpGe:
			return a.S >= b.S
		}
	}
	switch op {
	case lvm.OpLt:
		return a.I < b.I
	case lvm.OpLe:
		return a.I <= b.I
	case lvm.OpGt:
		return a.I > b.I
	case lvm.OpGe:
		return a.I >= b.I
	}
	return false
}
