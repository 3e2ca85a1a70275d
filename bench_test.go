// Benchmark harness reproducing the evaluation of "A Proactive Middleware
// Platform for Mobile Computing" (Middleware 2003). One benchmark family per
// experiment in DESIGN.md §4; EXPERIMENTS.md records paper-vs-measured.
//
// Run with:
//
//	go test -bench=. -benchmem .
package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/jit"
	"repro/internal/lvm"
	"repro/internal/plotter"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/weave"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// E1 — platform overhead with hooks active and no extensions (§4.6: ~7 % on
// SPECjvm). Compare each synthetic workload on an un-instrumented machine
// against one with hook stubs planted at every join point.

func BenchmarkE1HookOverhead(b *testing.B) {
	for _, spec := range workload.All() {
		plain := jit.NewMachine(workload.Program(), nil, nil)
		hooked := jit.NewMachine(workload.Program(), weave.New(), nil)
		for _, cfg := range []struct {
			name string
			m    *jit.Machine
		}{
			{"hooks=off", plain},
			{"hooks=on", hooked},
		} {
			cfg.m.MaxSteps = 1 << 62
			b.Run(fmt.Sprintf("%s/%s", spec.Name, cfg.name), func(b *testing.B) {
				self := cfg.m.Prog.Class(spec.Class).New()
				meth := cfg.m.Prog.Method(spec.Class, spec.Method)
				arg := []lvm.Value{lvm.Int(spec.Arg)}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := cfg.m.Invoke(meth, self, arg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E2 — cost of one interception (§4.6: ~900 ns intercepted vs ~700 ns plain
// void interface call, ≈1.3×). A void method is called directly, through
// inactive hooks, and with a do-nothing advice woven.

const voidSrc = `
class Void
  method void call()
    retv
  end
end`

func BenchmarkE2Interception(b *testing.B) {
	run := func(b *testing.B, m *jit.Machine) {
		self := m.Prog.Class("Void").New()
		meth := m.Prog.Method("Void", "call")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Invoke(meth, self, nil); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("plain-call", func(b *testing.B) {
		run(b, jit.NewMachine(lvm.MustAssemble(voidSrc), nil, nil))
	})
	b.Run("hooks-inactive", func(b *testing.B) {
		run(b, jit.NewMachine(lvm.MustAssemble(voidSrc), weave.New(), nil))
	})
	b.Run("do-nothing-advice", func(b *testing.B) {
		w := weave.New()
		m := jit.NewMachine(lvm.MustAssemble(voidSrc), w, nil)
		a := &aop.Aspect{Name: "noop", Advices: []aop.Advice{
			aop.BeforeCall("Void.call(..)", aop.BodyFunc(func(*aop.Context) error { return nil })),
		}}
		if err := w.Insert(a); err != nil {
			b.Fatal(err)
		}
		run(b, m)
	})
	// Native (non-LVM) interception path used by remote services.
	b.Run("native-hooks-inactive", func(b *testing.B) {
		w := weave.New()
		h := w.HookMethod(aop.Signature{Class: "Svc", Method: "m", Return: "void"})
		fn := func([]lvm.Value) (lvm.Value, error) { return lvm.Nil(), nil }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := h.Invoke(nil, nil, fn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("native-do-nothing-advice", func(b *testing.B) {
		w := weave.New()
		h := w.HookMethod(aop.Signature{Class: "Svc", Method: "m", Return: "void"})
		a := &aop.Aspect{Name: "noop", Advices: []aop.Advice{
			aop.BeforeCall("Svc.*(..)", aop.BodyFunc(func(*aop.Context) error { return nil })),
		}}
		if err := w.Insert(a); err != nil {
			b.Fatal(err)
		}
		fn := func([]lvm.Value) (lvm.Value, error) { return lvm.Nil(), nil }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := h.Invoke(nil, nil, fn); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E3 — interception cost vs the cost of real extension bodies (§4.6: for
// security, transactions and orthogonal persistence the interception is a
// small fraction of the total).

func BenchmarkE3Extension(b *testing.B) {
	newEnv := func(kv *store.KV, extras map[string]any) *core.Env {
		host := ext.NewNodeHost(ext.NodeHostConfig{KV: kv, Clock: clock.Real{}})
		return &core.Env{NodeName: "bench", BaseAddr: "base", Host: host, Extras: extras}
	}
	builtins := core.NewBuiltins()
	ext.RegisterAll(builtins)

	invoke := func(b *testing.B, w *weave.Weaver) {
		h := w.HookMethod(aop.Signature{Class: "Robot", Method: "moveArm", Return: "int", Params: []string{"int"}})
		fn := func(args []lvm.Value) (lvm.Value, error) { return lvm.Int(args[0].I), nil }
		meta := map[string]lvm.Value{svc.MetaCaller: lvm.Str("operator")}
		args := []lvm.Value{lvm.Int(30)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := h.InvokeWithMeta(nil, args, meta, fn); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("unwoven-baseline", func(b *testing.B) {
		invoke(b, weave.New())
	})

	b.Run("interception-only", func(b *testing.B) {
		w := weave.New()
		a := &aop.Aspect{Name: "noop", Advices: []aop.Advice{
			aop.BeforeCall("Robot.*(..)", aop.BodyFunc(func(*aop.Context) error { return nil })),
		}}
		if err := w.Insert(a); err != nil {
			b.Fatal(err)
		}
		invoke(b, w)
	})

	b.Run("security", func(b *testing.B) {
		w := weave.New()
		env := newEnv(store.NewKV(), nil)
		session, err := builtins.New(ext.BSession, env, nil)
		if err != nil {
			b.Fatal(err)
		}
		access, err := builtins.New(ext.BAccessControl, env, map[string]string{"allow": "operator"})
		if err != nil {
			b.Fatal(err)
		}
		a := &aop.Aspect{Name: "security", Advices: []aop.Advice{
			aop.BeforeCall("Robot.*(..)", session),
			aop.BeforeCall("Robot.*(..)", access),
		}}
		if err := w.Insert(a); err != nil {
			b.Fatal(err)
		}
		invoke(b, w)
	})

	b.Run("transactions", func(b *testing.B) {
		w := weave.New()
		kv := store.NewKV()
		env := newEnv(kv, map[string]any{ext.ExtraTxnManager: txn.NewManager(kv)})
		body, err := builtins.New(ext.BTxn, env, map[string]string{"key": "bench"})
		if err != nil {
			b.Fatal(err)
		}
		a := &aop.Aspect{Name: "txn", Advices: []aop.Advice{
			aop.BeforeCall("Robot.*(..)", body),
			{When: aop.After, Cut: aop.Cut(aop.MethodExit, "Robot.*(..)"), Body: body},
		}}
		if err := w.Insert(a); err != nil {
			b.Fatal(err)
		}
		invoke(b, w)
	})

	b.Run("persistence", func(b *testing.B) {
		w := weave.New()
		env := newEnv(store.NewKV(), nil)
		body, err := builtins.New(ext.BPersist, env, nil)
		if err != nil {
			b.Fatal(err)
		}
		// Persistence hooks state writes; approximate by running it at the
		// method boundary over the same call shape.
		a := &aop.Aspect{Name: "persist", Advices: []aop.Advice{
			{When: aop.After, Cut: aop.Cut(aop.MethodExit, "Robot.*(..)"), Body: body},
		}}
		if err := w.Insert(a); err != nil {
			b.Fatal(err)
		}
		invoke(b, w)
	})
}

// ---------------------------------------------------------------------------
// E4 — autonomous revocation (§3.2): latency from losing the base to the
// extension being withdrawn, as a function of the lease duration.

func BenchmarkE4Revocation(b *testing.B) {
	for _, leaseDur := range []time.Duration{20 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond} {
		b.Run(fmt.Sprintf("lease=%s", leaseDur), func(b *testing.B) {
			signer, _ := sign.NewSigner("hall")
			trust := sign.NewTrustStore()
			trust.Trust("hall", signer.PublicKey())
			builtins := core.NewBuiltins()
			builtins.Register("noop", func(*core.Env, map[string]string) (aop.Body, error) {
				return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
			})
			receiver, err := core.NewReceiver(core.ReceiverConfig{
				NodeName: "n", Weaver: weave.New(), Trust: trust,
				Policy: sandbox.AllowAll(), Host: lvm.HostMap{}, Builtins: builtins,
			})
			if err != nil {
				b.Fatal(err)
			}
			receiver.Grantor().Start(2 * time.Millisecond)
			defer receiver.Grantor().Stop()

			extension := core.Extension{
				ID: "e", Name: "e", Version: 1,
				Advices: []core.AdviceSpec{{Name: "a", Kind: core.KindCallBefore, Pattern: "*.*(..)", Builtin: "noop"}},
			}
			var total time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				extension.Version = i + 1
				signed, err := core.Sign(signer, extension)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := receiver.Install(signed, "base", leaseDur); err != nil {
					b.Fatal(err)
				}
				// The base disappears: no renewals arrive.
				start := time.Now()
				for receiver.Has("e") {
					time.Sleep(time.Millisecond)
				}
				total += time.Since(start)
			}
			b.StopTimer()
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "ms-to-revoke")
		})
	}
}

// ---------------------------------------------------------------------------
// E5 — extension distribution: adapting N newly arrived nodes (push one
// extension each) over the in-process fabric and over TCP.

func benchDistribution(b *testing.B, n int, useTCP bool) {
	signer, _ := sign.NewSigner("hall")
	builtins := core.NewBuiltins()
	builtins.Register("noop", func(*core.Env, map[string]string) (aop.Body, error) {
		return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
	})
	fabric := transport.NewInProc()

	type node struct {
		receiver *core.Receiver
		addr     string
	}
	nodes := make([]node, n)
	var cleanup []func()
	defer func() {
		for _, f := range cleanup {
			f()
		}
	}()
	for i := 0; i < n; i++ {
		trust := sign.NewTrustStore()
		trust.Trust("hall", signer.PublicKey())
		receiver, err := core.NewReceiver(core.ReceiverConfig{
			NodeName: fmt.Sprintf("n%d", i), Weaver: weave.New(), Trust: trust,
			Policy: sandbox.AllowAll(), Host: lvm.HostMap{}, Builtins: builtins,
		})
		if err != nil {
			b.Fatal(err)
		}
		mux := transport.NewMux()
		receiver.ServeOn(mux)
		addr := fmt.Sprintf("node-%d", i)
		if useTCP {
			srv, err := transport.ServeTCP("127.0.0.1:0", mux)
			if err != nil {
				b.Fatal(err)
			}
			cleanup = append(cleanup, func() { srv.Close() })
			addr = srv.Addr()
		} else {
			stop, err := fabric.Serve(addr, mux)
			if err != nil {
				b.Fatal(err)
			}
			cleanup = append(cleanup, stop)
		}
		nodes[i] = node{receiver: receiver, addr: addr}
	}

	var caller transport.Caller = fabric.Node("base")
	if useTCP {
		tcp := transport.NewTCPCaller()
		defer tcp.Close()
		caller = tcp
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base, err := core.NewBase(core.BaseConfig{
			Name: "base", Addr: "base", Caller: caller, Signer: signer,
			LeaseDur: time.Minute, // keep renewals out of the measurement
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := base.AddExtension(core.Extension{
			ID: "e", Name: "e", Version: i + 1,
			Advices: []core.AdviceSpec{{Name: "a", Kind: core.KindCallBefore, Pattern: "*.*(..)", Builtin: "noop"}},
		}); err != nil {
			b.Fatal(err)
		}
		for _, nd := range nodes {
			if err := base.AdaptNode(nd.addr, nd.addr); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		base.Close()
		b.StartTimer()
	}
}

func BenchmarkE5Distribution(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("inproc/nodes=%d", n), func(b *testing.B) { benchDistribution(b, n, false) })
	}
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("tcp/nodes=%d", n), func(b *testing.B) { benchDistribution(b, n, true) })
	}
}

// ---------------------------------------------------------------------------
// E6 — Fig. 2: remote method call latency before and after adaptation, with
// k stacked extensions (session, access control, logging).

func BenchmarkE6AdaptedCall(b *testing.B) {
	builtins := core.NewBuiltins()
	ext.RegisterAll(builtins)

	setups := []struct {
		name  string
		stack []string
	}{
		{"k=0-unadapted", nil},
		{"k=1-session", []string{ext.BSession}},
		{"k=2-access", []string{ext.BSession, ext.BAccessControl}},
		{"k=3-logging", []string{ext.BSession, ext.BAccessControl, ext.BLogger}},
	}
	for _, setup := range setups {
		b.Run(setup.name, func(b *testing.B) {
			fabric := transport.NewInProc()
			weaver := weave.New()
			services := svc.NewRegistry(weaver)
			services.Register("Robot", "moveArm", []string{"int"}, "int", func(args []lvm.Value) (lvm.Value, error) {
				return lvm.Int(args[0].I), nil
			})
			mux := transport.NewMux()
			services.ServeOn(mux)
			stop, err := fabric.Serve("robot", mux)
			if err != nil {
				b.Fatal(err)
			}
			defer stop()

			env := &core.Env{NodeName: "robot", Host: ext.NewNodeHost(ext.NodeHostConfig{Clock: clock.Real{}})}
			var advices []aop.Advice
			for _, name := range setup.stack {
				var cfg map[string]string
				if name == ext.BAccessControl {
					cfg = map[string]string{"allow": "operator"}
				}
				body, err := builtins.New(name, env, cfg)
				if err != nil {
					b.Fatal(err)
				}
				advices = append(advices, aop.BeforeCall("Robot.*(..)", body))
			}
			if len(advices) > 0 {
				if err := weaver.Insert(&aop.Aspect{Name: "stack", Advices: advices}); err != nil {
					b.Fatal(err)
				}
			}

			caller := fabric.Node("client")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.Call(caller, "robot", "Robot", "moveArm", "operator", lvm.Int(30)); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The "local" variants exclude the transport so the per-extension
		// increments of the interception chain are visible (the remote
		// variants show that RPC dominates, which is the paper's point that
		// the platform overhead is negligible against the functionality).
		b.Run("local-"+setup.name, func(b *testing.B) {
			weaver := weave.New()
			services := svc.NewRegistry(weaver)
			services.Register("Robot", "moveArm", []string{"int"}, "int", func(args []lvm.Value) (lvm.Value, error) {
				return lvm.Int(args[0].I), nil
			})
			env := &core.Env{NodeName: "robot", Host: ext.NewNodeHost(ext.NodeHostConfig{Clock: clock.Real{}})}
			var advices []aop.Advice
			for _, name := range setup.stack {
				var cfg map[string]string
				if name == ext.BAccessControl {
					cfg = map[string]string{"allow": "operator"}
				}
				body, err := builtins.New(name, env, cfg)
				if err != nil {
					b.Fatal(err)
				}
				advices = append(advices, aop.BeforeCall("Robot.*(..)", body))
			}
			if len(advices) > 0 {
				if err := weaver.Insert(&aop.Aspect{Name: "stack", Advices: advices}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := services.Invoke("Robot", "moveArm", "operator", []lvm.Value{lvm.Int(30)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E7 — run-time weaving cost as a function of application size (number of
// join-point sites the crosscut must be matched against).

func BenchmarkE7WeaveTime(b *testing.B) {
	for _, methods := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("methods=%d", methods), func(b *testing.B) {
			w := weave.New()
			for i := 0; i < methods; i++ {
				sig := aop.Signature{Class: fmt.Sprintf("C%d", i%50), Method: fmt.Sprintf("m%d", i), Return: "void"}
				w.RegisterMethodSite(aop.MethodEntry, sig)
				w.RegisterMethodSite(aop.MethodExit, sig)
			}
			body := aop.BodyFunc(func(*aop.Context) error { return nil })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := &aop.Aspect{Name: "a", Advices: []aop.Advice{aop.BeforeCall("C1.*(..)", body)}}
				if err := w.Insert(a); err != nil {
					b.Fatal(err)
				}
				if err := w.Withdraw(context.Background(), "a"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E8 — symmetric ad-hoc mode: time for a community of N peers to converge to
// the union of everyone's extensions.

func BenchmarkE8AdhocConvergence(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fabric := transport.NewInProc()
				type peer struct {
					base     *core.Base
					receiver *core.Receiver
					addr     string
				}
				peers := make([]peer, n)
				signers := make([]*sign.Signer, n)
				for j := 0; j < n; j++ {
					signers[j], _ = sign.NewSigner(fmt.Sprintf("p%d", j))
				}
				builtins := core.NewBuiltins()
				builtins.Register("noop", func(*core.Env, map[string]string) (aop.Body, error) {
					return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
				})
				for j := 0; j < n; j++ {
					trust := sign.NewTrustStore()
					for k := 0; k < n; k++ {
						trust.Trust(fmt.Sprintf("p%d", k), signers[k].PublicKey())
					}
					addr := fmt.Sprintf("peer-%d", j)
					receiver, err := core.NewReceiver(core.ReceiverConfig{
						NodeName: addr, Weaver: weave.New(), Trust: trust,
						Policy: sandbox.AllowAll(), Host: lvm.HostMap{}, Builtins: builtins,
					})
					if err != nil {
						b.Fatal(err)
					}
					base, err := core.NewBase(core.BaseConfig{
						Name: addr, Addr: addr, Caller: fabric.Node(addr),
						Signer: signers[j], LeaseDur: time.Minute,
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := base.AddExtension(core.Extension{
						ID: addr + "/e", Name: "svc-" + addr, Version: 1,
						Advices: []core.AdviceSpec{{Name: "a", Kind: core.KindCallBefore, Pattern: "*.*(..)", Builtin: "noop"}},
					}); err != nil {
						b.Fatal(err)
					}
					mux := transport.NewMux()
					receiver.ServeOn(mux)
					base.ServeOn(mux)
					if _, err := fabric.Serve(addr, mux); err != nil {
						b.Fatal(err)
					}
					peers[j] = peer{base: base, receiver: receiver, addr: addr}
				}
				b.StartTimer()
				// Every peer adapts every other peer; measure to convergence.
				for j := range peers {
					for k := range peers {
						if j == k {
							continue
						}
						if err := peers[j].base.AdaptNode(peers[k].addr, peers[k].addr); err != nil {
							b.Fatal(err)
						}
					}
				}
				for _, p := range peers {
					if len(p.receiver.Installed()) != n-1 {
						b.Fatalf("peer has %d extensions, want %d", len(p.receiver.Installed()), n-1)
					}
				}
				b.StopTimer()
				for _, p := range peers {
					p.base.Close()
				}
				b.StartTimer()
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E9 — dynamic weaving vs a compile-time-weaving baseline (the AspectJ-style
// comparator): the same auditing behaviour inlined into the bytecode at
// "compile time" versus attached through PROSE hooks at run time.

const e9BaseSrc = `
class Work
  field audit
  method int step(int x)
    load x
    push 3
    mul
    push 1
    add
    ret
  end
end`

const e9StaticSrc = `
class Work
  field audit
  method int step(int x)
    ; statically woven advice: audit += 1
    getself audit
    push 1
    add
    setself audit
    load x
    push 3
    mul
    push 1
    add
    ret
  end
end`

func BenchmarkE9StaticVsDynamic(b *testing.B) {
	b.Run("unwoven", func(b *testing.B) {
		m := jit.NewMachine(lvm.MustAssemble(e9BaseSrc), nil, nil)
		benchE9(b, m)
	})
	b.Run("static-weaving", func(b *testing.B) {
		m := jit.NewMachine(lvm.MustAssemble(e9StaticSrc), nil, nil)
		benchE9(b, m)
	})
	b.Run("dynamic-weaving", func(b *testing.B) {
		w := weave.New()
		m := jit.NewMachine(lvm.MustAssemble(e9BaseSrc), w, nil)
		audit := 0
		a := &aop.Aspect{Name: "audit", Advices: []aop.Advice{
			aop.BeforeCall("Work.step(..)", aop.BodyFunc(func(*aop.Context) error {
				audit++
				return nil
			})),
		}}
		if err := w.Insert(a); err != nil {
			b.Fatal(err)
		}
		benchE9(b, m)
	})
}

func benchE9(b *testing.B, m *jit.Machine) {
	m.MaxSteps = 1 << 62
	self := m.Prog.Class("Work").New()
	meth := m.Prog.Method("Work", "step")
	args := []lvm.Value{lvm.Int(7)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Invoke(meth, self, args); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E10 — hardware monitoring throughput (§4.4/Fig. 3b): plotter drawing rate
// without monitoring, with the async logging extension and with sync posting
// (the latter doubles as the sync-post ablation).

func BenchmarkE10Monitoring(b *testing.B) {
	for _, mode := range []string{"off", "async", "sync"} {
		b.Run("mode="+mode, func(b *testing.B) {
			fabric := transport.NewInProc()
			db := store.NewMemory()
			signer, _ := sign.NewSigner("hall")
			base, err := core.NewBase(core.BaseConfig{
				Name: "base", Addr: "base", Caller: fabric.Node("base"),
				Signer: signer, Store: db, LeaseDur: time.Hour,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer base.Close()
			baseMux := transport.NewMux()
			base.ServeOn(baseMux)
			stop, err := fabric.Serve("base", baseMux)
			if err != nil {
				b.Fatal(err)
			}
			defer stop()

			weaver := weave.New()
			plot, err := plotter.New(weaver, plotter.NewCanvas(64, 64))
			if err != nil {
				b.Fatal(err)
			}
			if mode != "off" {
				builtins := core.NewBuiltins()
				ext.RegisterAll(builtins)
				env := &core.Env{
					NodeName: "plotter", BaseAddr: "base",
					Host: ext.NewNodeHost(ext.NodeHostConfig{Caller: fabric.Node("plotter"), Clock: clock.Real{}}),
				}
				body, err := builtins.New(ext.BMonitor, env, map[string]string{"mode": mode})
				if err != nil {
					b.Fatal(err)
				}
				a := &aop.Aspect{Name: "monitor", Advices: []aop.Advice{
					aop.BeforeCall("Motor.*(..)", body),
				}}
				if err := weaver.Insert(a); err != nil {
					b.Fatal(err)
				}
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := plot.MoveTo(32, 0); err != nil {
					b.Fatal(err)
				}
				if err := plot.MoveTo(0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5).

// AblationHookFastPath quantifies the minimal-hook design: dispatching
// through an inactive site versus paying for a context even when nothing is
// woven.
func BenchmarkAblationHookFastPath(b *testing.B) {
	w := weave.New()
	site := w.RegisterMethodSite(aop.MethodEntry, aop.Signature{Class: "C", Method: "m", Return: "void"})
	b.Run("fast-path-check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if site.Active() {
				b.Fatal("site unexpectedly active")
			}
		}
	})
	b.Run("always-build-context", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx := weave.GetContext()
			ctx.Kind = aop.MethodEntry
			ctx.Sig = site.Sig
			if err := site.Dispatch(ctx); err != nil {
				b.Fatal(err)
			}
			weave.PutContext(ctx)
		}
	})
}

// AblationMatchPerCall compares the weaver's precomputed advice chains with
// the naive design that re-matches the crosscut pattern on every dispatch.
func BenchmarkAblationMatchPerCall(b *testing.B) {
	patterns := make([]*aop.Pattern, 20)
	for i := range patterns {
		patterns[i] = aop.Cut(aop.MethodEntry, fmt.Sprintf("void C%d.m*(int, ..)", i)).Pat
	}
	sig := aop.Signature{Class: "C7", Method: "move", Return: "void", Params: []string{"int", "int"}}

	b.Run("precomputed-chain", func(b *testing.B) {
		w := weave.New()
		site := w.RegisterMethodSite(aop.MethodEntry, sig)
		body := aop.BodyFunc(func(*aop.Context) error { return nil })
		var advices []aop.Advice
		for i := range patterns {
			advices = append(advices, aop.Advice{
				When: aop.Before,
				Cut:  aop.Crosscut{Kind: aop.MethodEntry, Pat: patterns[i]},
				Body: body,
			})
		}
		if err := w.Insert(&aop.Aspect{Name: "a", Advices: advices}); err != nil {
			b.Fatal(err)
		}
		ctx := &aop.Context{Sig: sig}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := site.Dispatch(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("match-per-call", func(b *testing.B) {
		body := func() error { return nil }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range patterns {
				if p.MatchMethod(sig) {
					if err := body(); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// AblationRenewInterval measures how the renewal fraction trades renewal
// traffic against revocation latency: later renewals (7/8 of the lease) mean
// fewer messages but later failure detection than eager ones (1/2).
func BenchmarkAblationRenewInterval(b *testing.B) {
	for _, fraction := range []float64{0.5, 0.875} {
		b.Run(fmt.Sprintf("fraction=%.3f", fraction), func(b *testing.B) {
			signer, _ := sign.NewSigner("hall")
			builtins := core.NewBuiltins()
			builtins.Register("noop", func(*core.Env, map[string]string) (aop.Body, error) {
				return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
			})
			trust := sign.NewTrustStore()
			trust.Trust("hall", signer.PublicKey())

			fabric := transport.NewInProc()
			receiver, err := core.NewReceiver(core.ReceiverConfig{
				NodeName: "n", Weaver: weave.New(), Trust: trust,
				Policy: sandbox.AllowAll(), Host: lvm.HostMap{}, Builtins: builtins,
			})
			if err != nil {
				b.Fatal(err)
			}
			receiver.Grantor().Start(2 * time.Millisecond)
			defer receiver.Grantor().Stop()
			mux := transport.NewMux()
			receiver.ServeOn(mux)
			stop, err := fabric.Serve("node", mux)
			if err != nil {
				b.Fatal(err)
			}
			defer stop()

			var totalRevoke time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base, err := core.NewBase(core.BaseConfig{
					Name: "base", Addr: "base", Caller: fabric.Node("base"),
					Signer: signer, LeaseDur: 50 * time.Millisecond, RenewFraction: fraction,
					CallTimeout: 200 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := base.AddExtension(core.Extension{
					ID: "e", Name: "e", Version: i + 1,
					Advices: []core.AdviceSpec{{Name: "a", Kind: core.KindCallBefore, Pattern: "*.*(..)", Builtin: "noop"}},
				}); err != nil {
					b.Fatal(err)
				}
				if err := base.AdaptNode("n", "node"); err != nil {
					b.Fatal(err)
				}
				// Let a few renewal rounds pass, then yank the node away by
				// stopping the base's renewals and measure time-to-revoke.
				time.Sleep(120 * time.Millisecond)
				start := time.Now()
				base.Release("node")
				for receiver.Has("e") {
					time.Sleep(time.Millisecond)
				}
				totalRevoke += time.Since(start)
				base.Close()
			}
			b.StopTimer()
			b.ReportMetric(float64(totalRevoke.Milliseconds())/float64(b.N), "ms-to-revoke")
		})
	}
}

// ---------------------------------------------------------------------------
// Engine comparison (supporting E1): the interpreted LVM vs the closure JIT,
// quantifying why PROSE attaches to the JIT rather than interpreting.

func BenchmarkEngineInterpVsJIT(b *testing.B) {
	for _, spec := range workload.All() {
		b.Run(spec.Name+"/interp", func(b *testing.B) {
			prog := workload.Program()
			in := lvm.NewInterp(prog, nil)
			in.MaxSteps = 1 << 62
			self := prog.Class(spec.Class).New()
			meth := prog.Method(spec.Class, spec.Method)
			args := []lvm.Value{lvm.Int(spec.Arg)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := in.Invoke(meth, self, args); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(spec.Name+"/jit", func(b *testing.B) {
			m := jit.NewMachine(workload.Program(), nil, nil)
			m.MaxSteps = 1 << 62
			self := m.Prog.Class(spec.Class).New()
			meth := m.Prog.Method(spec.Class, spec.Method)
			args := []lvm.Value{lvm.Int(spec.Arg)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.Invoke(meth, self, args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
