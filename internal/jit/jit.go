// Package jit plays the role of the JIT compiler PROSE instruments: it
// translates LVM bytecode into chains of Go closures ("native code") and —
// when a weaver is attached — plants minimal hook stubs at every potential
// join point: method entries and exits, field reads and writes, exception
// throws and handler entries (Fig. 1 of the paper).
//
// A stub's inactive cost is one atomic pointer load, so methods without
// woven advice run at essentially compiled speed; this is the property the
// paper's 7 %-overhead and 900 ns-per-interception measurements characterise,
// reproduced here by benchmarks E1 and E2.
package jit

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/aop"
	"repro/internal/lvm"
	"repro/internal/weave"
)

// Machine executes LVM programs through compiled code. A nil Weaver compiles
// without hook stubs (the un-instrumented baseline); a non-nil Weaver plants
// stubs at all join points.
type Machine struct {
	Prog     *lvm.Program
	Weaver   *weave.Weaver
	Host     lvm.Host
	MaxSteps int64
	MaxDepth int

	mu    sync.Mutex
	cache map[*lvm.Method]*compiled

	framePool sync.Pool
}

// NewMachine returns a Machine over prog. weaver may be nil for an
// un-instrumented machine.
func NewMachine(prog *lvm.Program, weaver *weave.Weaver, host lvm.Host) *Machine {
	m := &Machine{
		Prog:     prog,
		Weaver:   weaver,
		Host:     host,
		MaxSteps: lvm.DefaultMaxSteps,
		MaxDepth: lvm.DefaultMaxDepth,
		cache:    make(map[*lvm.Method]*compiled),
	}
	m.framePool.New = func() any { return &frame{} }
	return m
}

// CompileAll eagerly compiles every method in the program, registering all
// join-point sites with the weaver. Returns the number of methods compiled.
func (m *Machine) CompileAll() (int, error) {
	n := 0
	var err error
	m.Prog.EachMethod(func(meth *lvm.Method) {
		if err != nil {
			return
		}
		if _, cerr := m.compiledFor(meth); cerr != nil {
			err = cerr
			return
		}
		n++
	})
	return n, err
}

// Invoke calls a compiled method with the given receiver and arguments.
func (m *Machine) Invoke(meth *lvm.Method, self *lvm.Object, args []lvm.Value) (lvm.Value, error) {
	c, err := m.compiledFor(meth)
	if err != nil {
		return lvm.Nil(), err
	}
	e := &env{m: m, steps: m.MaxSteps}
	if e.steps <= 0 {
		e.steps = lvm.DefaultMaxSteps
	}
	return c.invoke(e, self, args, 0)
}

// Call resolves "Class.method" and invokes it on a fresh instance when self
// is nil.
func (m *Machine) Call(class, method string, self *lvm.Object, args ...lvm.Value) (lvm.Value, error) {
	meth := m.Prog.Method(class, method)
	if meth == nil {
		return lvm.Nil(), fmt.Errorf("jit: no method %s.%s", class, method)
	}
	if self == nil {
		self = m.Prog.Class(class).New()
	}
	return m.Invoke(meth, self, args)
}

func (m *Machine) compiledFor(meth *lvm.Method) (*compiled, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.cache[meth]; ok {
		return c, nil
	}
	c, err := m.compile(meth)
	if err != nil {
		return nil, err
	}
	m.cache[meth] = c
	return c, nil
}

// env carries per-invocation execution state shared across nested calls.
type env struct {
	m     *Machine
	steps int64
}

type frame struct {
	locals []lvm.Value
	stack  []lvm.Value
	ret    lvm.Value
}

func (m *Machine) getFrame(nLocals, maxStack int) *frame {
	fr := m.framePool.Get().(*frame)
	if cap(fr.locals) < nLocals {
		fr.locals = make([]lvm.Value, nLocals)
	} else {
		fr.locals = fr.locals[:nLocals]
		for i := range fr.locals {
			fr.locals[i] = lvm.Value{}
		}
	}
	if cap(fr.stack) < maxStack {
		fr.stack = make([]lvm.Value, 0, maxStack)
	} else {
		fr.stack = fr.stack[:0]
	}
	fr.ret = lvm.Value{}
	return fr
}

func (m *Machine) putFrame(fr *frame) {
	m.framePool.Put(fr)
}

// stepFn executes one compiled instruction. It returns the next pc, or
// retPC to leave the method with fr.ret as the result.
type stepFn func(e *env, fr *frame, depth int) (int, error)

const retPC = -1

// compiled is the "native code" of one method plus its planted stub sites.
type compiled struct {
	m        *lvm.Method
	steps    []stepFn
	maxStack int

	// Hook stubs; nil when the machine has no weaver.
	entrySite   *weave.Site
	exitSite    *weave.Site
	throwSite   *weave.Site
	handlerSite *weave.Site
}

func (c *compiled) invoke(e *env, self *lvm.Object, args []lvm.Value, depth int) (lvm.Value, error) {
	maxDepth := e.m.MaxDepth
	if maxDepth <= 0 {
		maxDepth = lvm.DefaultMaxDepth
	}
	if depth > maxDepth {
		return lvm.Nil(), lvm.ErrStackDepth
	}
	if len(args) != c.m.Arity() {
		return lvm.Nil(), lvm.Throwf("%s: want %d args, got %d", c.m, c.m.Arity(), len(args))
	}

	// Method-boundary stubs share one context so advice can pass session
	// state from the entry interception to the exit interception (Fig. 2).
	entryActive := c.entrySite != nil && c.entrySite.Active()
	exitActive := c.exitSite != nil && c.exitSite.Active()
	var ctx *aop.Context
	if entryActive || exitActive {
		ctx = weave.GetContext()
		defer weave.PutContext(ctx)
		ctx.Sig = aop.SignatureOf(c.m)
		ctx.Self = self
		ctx.Args = args
	}
	if entryActive {
		ctx.Kind = aop.MethodEntry
		if err := c.entrySite.Dispatch(ctx); err != nil {
			return lvm.Nil(), err
		}
	}

	fr := e.m.getFrame(c.m.FrameSize(), c.maxStack)
	fr.locals[0] = lvm.Obj(self)
	copy(fr.locals[1:], args)

	pc := 0
	var result lvm.Value
	var finalErr error
	for pc >= 0 && pc < len(c.steps) {
		e.steps--
		if e.steps < 0 {
			finalErr = lvm.ErrStepBudget
			break
		}
		next, err := c.steps[pc](e, fr, depth)
		if err != nil {
			var thrown *lvm.Thrown
			if errors.As(err, &thrown) {
				// Exception-throw stub.
				if c.throwSite != nil && c.throwSite.Active() {
					ctx := weave.GetContext()
					ctx.Kind = aop.ExceptionThrow
					ctx.Sig = aop.SignatureOf(c.m)
					ctx.Self = self
					ctx.ErrMsg = thrown.Msg
					derr := c.throwSite.Dispatch(ctx)
					weave.PutContext(ctx)
					if derr != nil {
						finalErr = derr
						break
					}
				}
				if h, ok := handlerFor(c.m.Handlers, pc); ok {
					// Exception-handler stub.
					if c.handlerSite != nil && c.handlerSite.Active() {
						ctx := weave.GetContext()
						ctx.Kind = aop.ExceptionHandler
						ctx.Sig = aop.SignatureOf(c.m)
						ctx.Self = self
						ctx.ErrMsg = thrown.Msg
						derr := c.handlerSite.Dispatch(ctx)
						weave.PutContext(ctx)
						if derr != nil {
							finalErr = derr
							break
						}
					}
					fr.stack = fr.stack[:0]
					fr.stack = append(fr.stack, lvm.Str(thrown.Msg))
					pc = h.Target
					continue
				}
			}
			finalErr = err
			break
		}
		if next == retPC {
			result = fr.ret
			break
		}
		pc = next
	}
	e.m.putFrame(fr)
	if finalErr != nil {
		return lvm.Nil(), finalErr
	}

	// Method-exit stub.
	if exitActive {
		ctx.Kind = aop.MethodExit
		ctx.Result = result
		if err := c.exitSite.Dispatch(ctx); err != nil {
			return lvm.Nil(), err
		}
		result = ctx.Result
	}
	return result, nil
}

func handlerFor(hs []lvm.Handler, pc int) (lvm.Handler, bool) {
	for _, h := range hs {
		if pc >= h.Start && pc < h.End {
			return h, true
		}
	}
	return lvm.Handler{}, false
}

// fieldNames recovers (class, field) for a field instruction's join point.
// The assembler stores "Class.field" or a bare field name in Sym; self
// accesses use the enclosing class.
func fieldNames(m *lvm.Method, ins lvm.Instr) (class, field string) {
	cls := ""
	if m.Class != nil {
		cls = m.Class.Name
	}
	switch {
	case ins.Sym == "":
		// Raw numeric access from hand-built code: use the slot number.
		return cls, fmt.Sprintf("#%d", ins.A)
	case strings.ContainsRune(ins.Sym, '.'):
		dot := strings.LastIndexByte(ins.Sym, '.')
		return ins.Sym[:dot], ins.Sym[dot+1:]
	default:
		return cls, ins.Sym
	}
}
