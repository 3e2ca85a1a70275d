package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/aop"
	"repro/internal/jit"
	"repro/internal/lvm"
	"repro/internal/lvm/analysis"
	"repro/internal/metrics"
)

// Env is the node-side environment handed to advice bodies: the (gated) host
// functions of the node plus identity information. Builtins receive it at
// construction; mobile code reaches it through host calls.
type Env struct {
	NodeName string
	BaseAddr string // address of the base that installed the extension
	Host     lvm.Host
	// Extras carries node-local native facilities (e.g. a *txn.Manager) that
	// builtins may use after checking their granted capabilities.
	Extras map[string]any
}

// Factory builds a builtin advice body from its configuration.
type Factory func(env *Env, cfg map[string]string) (aop.Body, error)

// Builtins is a registry of named advice factories compiled into a node.
type Builtins struct {
	mu        sync.RWMutex
	factories map[string]Factory
	bundles   map[string]Extension
}

// NewBuiltins returns an empty registry.
func NewBuiltins() *Builtins {
	return &Builtins{
		factories: make(map[string]Factory),
		bundles:   make(map[string]Extension),
	}
}

// Register installs a factory under name, overwriting any previous one.
func (b *Builtins) Register(name string, f Factory) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.factories[name] = f
}

// New builds the named builtin body.
func (b *Builtins) New(name string, env *Env, cfg map[string]string) (aop.Body, error) {
	b.mu.RLock()
	f, ok := b.factories[name]
	b.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown builtin advice %q", name)
	}
	return f(env, cfg)
}

// RegisterBundle registers a complete implicit extension under its name;
// receivers auto-install it when another extension Requires it (the paper's
// session-management example in §3.3).
func (b *Builtins) RegisterBundle(ext Extension) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bundles[ext.Name] = ext
}

// Bundle fetches a registered implicit extension.
func (b *Builtins) Bundle(name string) (Extension, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	e, ok := b.bundles[name]
	return e, ok
}

// AdviceClass and AdviceMethod define the shape mobile advice code must have:
// a class named Ext with a niladic method named advice. The join point is
// reached through ctx.* host calls.
const (
	AdviceClass  = "Ext"
	AdviceMethod = "advice"
)

// defaultAdviceMaxSteps is the fuel budget, in executed instructions, for
// advice whose cost the static analyzer could not bound (loops, recursion).
const defaultAdviceMaxSteps = 200_000

// CompileAdvice assembles mobile advice source and wraps it as an aop.Body
// whose host calls go through the node's sandboxed host plus the ctx.*
// join-point accessors.
func CompileAdvice(source string, host lvm.Host) (aop.Body, error) {
	a, err := analyzeAdvice(source)
	if err != nil {
		return nil, fmt.Errorf("core: advice code rejected: %w", err)
	}
	return a.compile(host)
}

// adviceProgram is one mobile advice, assembled, shape-checked and analysed
// once: admission reads its report, and compile builds bodies from it.
type adviceProgram struct {
	prog     *lvm.Program
	cls      *lvm.Class
	meth     *lvm.Method
	rep      *analysis.MethodReport
	warnings []string
}

// analyzeAdvice assembles mobile advice source, checks that it has the
// required shape (a class AdviceClass with a niladic AdviceMethod) and runs
// the static analyzer over it. Mobile code is verified before it is ever
// executed: the analyzer checks operand ranges, jump targets, stack
// discipline and typed operand use across all paths (strictly stronger than
// lvm.VerifyProgram), and its cost analysis sizes the advice's fuel budget.
func analyzeAdvice(source string) (*adviceProgram, error) {
	prog, err := lvm.Assemble(source)
	if err != nil {
		return nil, err
	}
	cls := prog.Class(AdviceClass)
	if cls == nil {
		return nil, fmt.Errorf("advice code must define class %s", AdviceClass)
	}
	meth := cls.Methods[AdviceMethod]
	if meth == nil {
		return nil, fmt.Errorf("advice code must define %s.%s()", AdviceClass, AdviceMethod)
	}
	if meth.Arity() != 0 {
		return nil, fmt.Errorf("%s.%s must take no parameters", AdviceClass, AdviceMethod)
	}
	full, err := analysis.AnalyzeProgram(prog)
	if err != nil {
		return nil, err
	}
	return &adviceProgram{prog: prog, cls: cls, meth: meth, rep: full.Method(AdviceClass, AdviceMethod), warnings: full.Warnings}, nil
}

// vettedAdviceMax bounds how many analysed advice bodies one base or one
// receiver keeps for reuse. A policy set rotates a handful of bodies; the
// bound only caps what a stream of distinct bodies can pin.
const vettedAdviceMax = 64

// adviceCache remembers the advice bodies one base or one receiver has
// vetted, keyed by their exact source text, so a push that carries a body
// this instance has seen before (a new version changing only config, caps,
// pattern or priority, or a re-install after a lapse) skips assembly and
// analysis. Only analyses that succeed are kept, at most vettedAdviceMax,
// the oldest evicted first; a rejected body is analysed, and rejected, on
// every push. A kept adviceProgram is only ever read, and every
// per-extension check still runs on each push: the cache saves work, never
// a decision. The zero value is ready to use.
type adviceCache struct {
	mu    sync.Mutex
	progs map[string]*adviceProgram
	// order holds the keys in insertion order, as a ring once it is full:
	// order[next] is then the oldest.
	order  []string
	next   int
	reused *metrics.Counter
}

// instrument counts every reuse in reused.
func (c *adviceCache) instrument(reused *metrics.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reused = reused
}

// vet returns the analysis of source, from the cache when this instance has
// vetted the same text before. A nil cache analyses every body afresh.
func (c *adviceCache) vet(source string) (*adviceProgram, error) {
	if c == nil {
		return analyzeAdvice(source)
	}
	c.mu.Lock()
	a, ok := c.progs[source]
	if ok {
		c.reused.Inc()
	}
	c.mu.Unlock()
	if ok {
		return a, nil
	}
	a, err := analyzeAdvice(source)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.progs[source]; ok {
		return a, nil // a concurrent push vetted the same body first
	}
	if c.progs == nil {
		c.progs = make(map[string]*adviceProgram)
	}
	if len(c.order) < vettedAdviceMax {
		c.order = append(c.order, source)
	} else {
		delete(c.progs, c.order[c.next])
		c.order[c.next] = source
		c.next = (c.next + 1) % vettedAdviceMax
	}
	c.progs[source] = a
	return a, nil
}

// compile builds a body running the analysed advice on the JIT: a machine of
// its own, with no weaver (advice is never woven itself), whose host calls
// go through host plus the ctx.* join-point accessors. The advice method is
// compiled and bound here, once per install.
func (a *adviceProgram) compile(host lvm.Host) (aop.Body, error) {
	b := &codeBody{}
	m := jit.NewMachine(a.prog, nil, &ctxHost{inner: host, body: b})
	m.MaxSteps = int64(adviceMaxSteps(a.rep.Fuel))
	run, err := m.Bind(a.meth, a.cls.New())
	if err != nil {
		return nil, err
	}
	b.run = run
	return b, nil
}

// adviceMaxSteps converts a static fuel verdict into a step budget: provably
// bounded advice runs under its exact bound (small slack for the invoke
// overhead), everything else keeps the legacy fixed cap.
func adviceMaxSteps(f analysis.Fuel) int {
	if f.Bounded {
		return f.Steps + 8
	}
	return defaultAdviceMaxSteps
}

// codeBody executes one mobile advice method. Executions are serialised per
// body so the ctx.* host accessors see a consistent join point, and so the
// bound method's execution state is never shared.
type codeBody struct {
	mu  sync.Mutex
	run *jit.Bound
	cur *aop.Context
}

// Exec implements aop.Body.
func (b *codeBody) Exec(ctx *aop.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cur = ctx
	defer func() { b.cur = nil }()
	_, err := b.run.Invoke(nil)
	return err
}

// ctxFunc is a join-point accessor: it serves one ctx.* host call against the
// join point the body is executing at.
type ctxFunc func(ctx *aop.Context, args []lvm.Value) (lvm.Value, error)

// ctxFuncs are the ctx.* host functions of mobile advice.
var ctxFuncs = map[string]ctxFunc{
	"ctx.kind": func(ctx *aop.Context, _ []lvm.Value) (lvm.Value, error) {
		return lvm.Str(ctx.Kind.String()), nil
	},
	"ctx.class": func(ctx *aop.Context, _ []lvm.Value) (lvm.Value, error) {
		return lvm.Str(ctx.Sig.Class), nil
	},
	"ctx.method": func(ctx *aop.Context, _ []lvm.Value) (lvm.Value, error) {
		return lvm.Str(ctx.Sig.Method), nil
	},
	"ctx.field": func(ctx *aop.Context, _ []lvm.Value) (lvm.Value, error) {
		return lvm.Str(ctx.Field), nil
	},
	"ctx.errmsg": func(ctx *aop.Context, _ []lvm.Value) (lvm.Value, error) {
		return lvm.Str(ctx.ErrMsg), nil
	},
	"ctx.argc": func(ctx *aop.Context, _ []lvm.Value) (lvm.Value, error) {
		return lvm.Int(int64(len(ctx.Args))), nil
	},
	"ctx.arg": func(ctx *aop.Context, args []lvm.Value) (lvm.Value, error) {
		if len(args) != 1 {
			return lvm.Nil(), lvm.Throwf("ctx.arg needs an index")
		}
		return ctx.Arg(int(args[0].I)), nil
	},
	"ctx.setarg": func(ctx *aop.Context, args []lvm.Value) (lvm.Value, error) {
		if len(args) != 2 {
			return lvm.Nil(), lvm.Throwf("ctx.setarg needs index and value")
		}
		ctx.SetArg(int(args[0].I), args[1])
		return lvm.Nil(), nil
	},
	"ctx.result": func(ctx *aop.Context, _ []lvm.Value) (lvm.Value, error) {
		return ctx.Result, nil
	},
	"ctx.setresult": func(ctx *aop.Context, args []lvm.Value) (lvm.Value, error) {
		if len(args) != 1 {
			return lvm.Nil(), lvm.Throwf("ctx.setresult needs a value")
		}
		ctx.SetResult(args[0])
		return lvm.Nil(), nil
	},
	"ctx.abort": func(ctx *aop.Context, args []lvm.Value) (lvm.Value, error) {
		msg := "aborted by extension"
		if len(args) > 0 {
			msg = args[0].String()
		}
		ctx.Abort(msg)
		return lvm.Nil(), nil
	},
	"ctx.put": func(ctx *aop.Context, args []lvm.Value) (lvm.Value, error) {
		if len(args) != 2 {
			return lvm.Nil(), lvm.Throwf("ctx.put needs key and value")
		}
		ctx.Put(args[0].S, args[1])
		return lvm.Nil(), nil
	},
	"ctx.get": func(ctx *aop.Context, args []lvm.Value) (lvm.Value, error) {
		if len(args) != 1 {
			return lvm.Nil(), lvm.Throwf("ctx.get needs a key")
		}
		v, _ := ctx.Get(args[0].S)
		return v, nil
	},
	"ctx.selfget": func(ctx *aop.Context, args []lvm.Value) (lvm.Value, error) {
		if len(args) != 1 || ctx.Self == nil {
			return lvm.Nil(), nil
		}
		v, _ := ctx.Self.FieldByName(args[0].S)
		return v, nil
	},
}

// ctxHost layers the ctx.* join-point accessors over the node host. All
// other calls fall through to the (typically sandbox-gated) inner host. It
// keeps no argument past a call: the accessors copy the Values they store.
type ctxHost struct {
	inner lvm.Host
	body  *codeBody
}

// HostCall implements lvm.Host.
func (h *ctxHost) HostCall(name string, args []lvm.Value) (lvm.Value, error) {
	if f, ok := ctxFuncs[name]; ok {
		return f(h.body.cur, args)
	}
	if h.inner == nil {
		return lvm.Nil(), lvm.Throwf("no host environment for %s", name)
	}
	return h.inner.HostCall(name, args)
}

// Prechecked implements lvm.PrecheckedHost. A ctx.* accessor resolves to a
// closure over this body, so it still reads the current join point through
// this layer; every other function delegates the proof query to the inner
// host.
func (h *ctxHost) Prechecked(name string) lvm.HostFunc {
	if f, ok := ctxFuncs[name]; ok {
		b := h.body
		return func(args []lvm.Value) (lvm.Value, error) { return f(b.cur, args) }
	}
	if strings.HasPrefix(name, "ctx.") {
		return nil
	}
	if ph, ok := h.inner.(lvm.PrecheckedHost); ok {
		return ph.Prechecked(name)
	}
	return nil
}

var _ lvm.PrecheckedHost = (*ctxHost)(nil)
