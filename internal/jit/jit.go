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
//
// The same compiler runs extension advice: a receiver compiles each mobile
// advice body on a machine with no weaver (advice is never woven itself) and
// binds it once per install (Machine.Bind).
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

	envPool sync.Pool
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
	m.envPool.New = func() any { return &env{m: m} }
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
	e := m.envPool.Get().(*env)
	e.start()
	v, err := c.invoke(e, self, args, 0)
	m.envPool.Put(e)
	return v, err
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

// Bound is one compiled method bound to its receiver object, with its own
// execution state: an invocation takes no pool, no lock and no lookup. It
// runs one invocation at a time; callers serialise Invoke.
type Bound struct {
	c    *compiled
	self *lvm.Object
	e    env
}

// Bind compiles meth and binds it to self.
func (m *Machine) Bind(meth *lvm.Method, self *lvm.Object) (*Bound, error) {
	c, err := m.compiledFor(meth)
	if err != nil {
		return nil, err
	}
	return &Bound{c: c, self: self, e: env{m: m}}, nil
}

// Invoke runs the bound method under a fresh step budget.
func (b *Bound) Invoke(args []lvm.Value) (lvm.Value, error) {
	b.e.start()
	return b.c.invoke(&b.e, b.self, args, 0)
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

// env carries one invocation's execution state across its nested calls: the
// fuel left, the depth limit, and one frame per call depth, which every call
// made at that depth reuses.
type env struct {
	m        *Machine
	steps    int64
	maxDepth int
	frames   []*frame
}

// start resets the budgets from the machine's limits for a new invocation.
func (e *env) start() {
	e.steps = e.m.MaxSteps
	if e.steps <= 0 {
		e.steps = lvm.DefaultMaxSteps
	}
	e.maxDepth = e.m.MaxDepth
	if e.maxDepth <= 0 {
		e.maxDepth = lvm.DefaultMaxDepth
	}
}

// frame returns the frame for a call to c at depth.
func (e *env) frame(depth int, c *compiled) *frame {
	for len(e.frames) <= depth {
		e.frames = append(e.frames, &frame{})
	}
	fr := e.frames[depth]
	if cap(fr.locals) < c.nLocals {
		fr.locals = make([]lvm.Value, c.nLocals)
	}
	fr.locals = fr.locals[:c.nLocals]
	if len(fr.stack) < c.maxStack {
		fr.stack = make([]lvm.Value, c.maxStack)
	}
	fr.used = c.maxStack
	return fr
}

// frame is one call's locals, operand stack and join-point context. The
// stack is indexed by sp; slots at and above sp hold dead values until
// release clears them.
type frame struct {
	locals  []lvm.Value
	stack   []lvm.Value
	sp      int
	used    int // stack slots this call may have written
	ret     lvm.Value
	ctx     aop.Context
	ctxUsed bool
}

func (fr *frame) push(v lvm.Value) {
	if fr.sp == len(fr.stack) {
		fr.grow()
	}
	fr.stack[fr.sp] = v
	fr.sp++
}

func (fr *frame) pop() lvm.Value {
	fr.sp--
	return fr.stack[fr.sp]
}

// grow doubles the stack of a method whose depth the verifier could not
// bound (code that never went through lvm.MaxStack successfully).
func (fr *frame) grow() {
	stack := make([]lvm.Value, 2*len(fr.stack)+1)
	copy(stack, fr.stack)
	fr.stack = stack
	fr.used = len(stack)
}

// release clears the slots the call used, so a parked frame keeps no values
// alive, and leaves the frame ready for the next call at its depth.
func (fr *frame) release() {
	clear(fr.locals)
	clear(fr.stack[:fr.used])
	fr.sp = 0
	fr.ret = lvm.Value{}
	if fr.ctxUsed {
		fr.ctx.Reset()
		fr.ctxUsed = false
	}
}

// stepFn executes one compiled instruction. It returns the next pc, or
// retPC to leave the method with fr.ret as the result.
type stepFn func(e *env, fr *frame, depth int) (int, error)

const retPC = -1

// compiled is the "native code" of one method plus its planted stub sites.
type compiled struct {
	m        *lvm.Method
	sig      aop.Signature
	steps    []stepFn
	arity    int
	nLocals  int
	maxStack int

	// Hook stubs; nil when the machine has no weaver.
	entrySite   *weave.Site
	exitSite    *weave.Site
	throwSite   *weave.Site
	handlerSite *weave.Site
}

func (c *compiled) invoke(e *env, self *lvm.Object, args []lvm.Value, depth int) (lvm.Value, error) {
	if depth > e.maxDepth {
		return lvm.Nil(), lvm.ErrStackDepth
	}
	if len(args) != c.arity {
		return lvm.Nil(), lvm.Throwf("%s: want %d args, got %d", c.m, c.arity, len(args))
	}
	fr := e.frame(depth, c)
	result, err := c.call(e, fr, self, args, depth)
	fr.release()
	return result, err
}

// call runs the method in fr between its entry and exit stubs.
func (c *compiled) call(e *env, fr *frame, self *lvm.Object, args []lvm.Value, depth int) (lvm.Value, error) {
	// Method-boundary stubs share one context so advice can pass session
	// state from the entry interception to the exit interception (Fig. 2).
	// It lives in the frame, which no other call uses until this one ends.
	entryActive := c.entrySite != nil && c.entrySite.Active()
	exitActive := c.exitSite != nil && c.exitSite.Active()
	ctx := &fr.ctx
	if entryActive || exitActive {
		fr.ctxUsed = true
		ctx.Sig = c.sig
		ctx.Self = self
		ctx.Args = args
	}
	if entryActive {
		ctx.Kind = aop.MethodEntry
		if err := c.entrySite.Dispatch(ctx); err != nil {
			return lvm.Nil(), err
		}
	}

	fr.locals[0] = lvm.Obj(self)
	copy(fr.locals[1:], args)
	result, err := c.run(e, fr, self, depth)
	if err != nil {
		return lvm.Nil(), err
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

// run executes the method body in fr, charging one step of fuel per
// instruction and routing LVM exceptions to the method's handlers.
func (c *compiled) run(e *env, fr *frame, self *lvm.Object, depth int) (lvm.Value, error) {
	pc := 0
	for pc >= 0 && pc < len(c.steps) {
		e.steps--
		if e.steps < 0 {
			return lvm.Nil(), lvm.ErrStepBudget
		}
		next, err := c.steps[pc](e, fr, depth)
		if err != nil {
			var thrown *lvm.Thrown
			if !errors.As(err, &thrown) {
				return lvm.Nil(), err
			}
			// Exception-throw stub.
			if err := c.fire(c.throwSite, aop.ExceptionThrow, self, thrown.Msg); err != nil {
				return lvm.Nil(), err
			}
			h, ok := handlerFor(c.m.Handlers, pc)
			if !ok {
				return lvm.Nil(), err
			}
			// Exception-handler stub.
			if err := c.fire(c.handlerSite, aop.ExceptionHandler, self, thrown.Msg); err != nil {
				return lvm.Nil(), err
			}
			fr.sp = 0
			fr.push(lvm.Str(thrown.Msg))
			pc = h.Target
			continue
		}
		if next == retPC {
			return fr.ret, nil
		}
		pc = next
	}
	return lvm.Nil(), nil
}

// fire dispatches an exception join point at site, if it is active.
func (c *compiled) fire(site *weave.Site, kind aop.Kind, self *lvm.Object, msg string) error {
	if site == nil || !site.Active() {
		return nil
	}
	ctx := weave.GetContext()
	ctx.Kind = kind
	ctx.Sig = c.sig
	ctx.Self = self
	ctx.ErrMsg = msg
	err := site.Dispatch(ctx)
	weave.PutContext(ctx)
	return err
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
