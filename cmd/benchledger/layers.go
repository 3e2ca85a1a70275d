package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/lvm"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/transport"
	"repro/internal/weave"
)

// The isolated layer costs: each calls one layer's public entry point in a
// tight loop on fixed inputs, outside any workload, so a change to that layer
// shows here even when an end-to-end number hides it. Every traced run
// measures all of them; they do not depend on the workload. Like the
// end-to-end timings they are converted to quiet-host time (probe.go).

// A layer's cost is the median over layerBatches timed batches of its loop,
// each calibrated to about layerBatch (shorter for runs under fullRun, so
// short smoke runs stay short).
const (
	layerBatch   = 8 * time.Millisecond
	layerBatches = 5
)

// layerLoop runs n iterations of a layer call and returns the time they took,
// excluding any per-batch preparation.
type layerLoop func(n int) (time.Duration, error)

// timed makes a layerLoop that times all of fn.
func timed(fn func(n int) error) layerLoop {
	return func(n int) (time.Duration, error) {
		t0 := now()
		err := fn(n)
		return since(t0), err
	}
}

// nsPerOp calibrates fn to about batch per run and returns the median over
// layerBatches runs of the quiet-host ns per iteration, each run converted
// with the probes around it.
func nsPerOp(fn layerLoop, batch time.Duration, probe *hostProbe) (float64, error) {
	n := 1
	for {
		d, err := fn(n)
		if err != nil {
			return 0, err
		}
		if d >= batch/4 || n >= 1<<30 {
			n = max(1, int(float64(n)*float64(batch)/float64(max(d, time.Microsecond))))
			break
		}
		n *= 4
	}
	per := make([]float64, layerBatches)
	_, before := probe.measure()
	for i := range per {
		d, err := fn(n)
		if err != nil {
			return 0, err
		}
		_, after := probe.measure()
		per[i] = float64(d) / float64(n) * factor(before, after)
		before = after
	}
	sort.Float64s(per)
	return per[len(per)/2], nil
}

// allocsPerOp is the average heap allocations of one call of fn.
func allocsPerOp(runs int, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < runs; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(runs), nil
}

// sink keeps loop results alive so the compiler cannot drop the measured call.
var sink any

func measureLayers(cfg config, probe *hostProbe) (map[string]metric, error) {
	batch := layerBatch * min(cfg.measure, fullRun) / fullRun
	out := make(map[string]metric)
	add := func(name string, fn layerLoop) error {
		v, err := nsPerOp(fn, batch, probe)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out[name] = metric{v, "ns", layerBatches}
		return nil
	}
	for _, step := range []func(add func(string, layerLoop) error) error{
		wireLayers, signLayers, weaveLayers, sandboxLayers, coreLayers, jitLayers,
	} {
		if err := step(add); err != nil {
			return nil, err
		}
	}
	const allocRuns = 200
	allocs, err := allocsPerOp(allocRuns, func() error {
		var r core.RenewBatchReq
		return transport.Decode(renewBatchBody, &r)
	})
	if err != nil {
		return nil, err
	}
	out["wire.renew_batch_decode_allocs"] = metric{allocs, "count", allocRuns}
	return out, nil
}

// invokeReq is the adapted call's request.
var invokeReq = svc.InvokeReq{Service: "Robot", Method: "moveArm", Caller: "operator", Args: []lvm.Value{lvm.Int(30)}}

// renewBatchBody is a full renewal batch (cmd/basestation's 64-lease cap).
var renewBatchBody = func() []byte {
	req := core.RenewBatchReq{WantObs: true}
	for i := 0; i < 64; i++ {
		req.Items = append(req.Items, core.RenewExtReq{LeaseID: fmt.Sprintf("node-%05d-L%d", i, i%3+1), DurMillis: 10000})
	}
	body, _, err := transport.EncodeBody(req, true)
	if err != nil {
		panic(err) // a fixed value with a wire codec always encodes
	}
	return body
}()

func wireLayers(add func(string, layerLoop) error) error {
	body, _, err := transport.EncodeBody(invokeReq, true)
	if err != nil {
		return err
	}
	return firstErr(
		add("wire.invoke_encode_ns", timed(func(n int) error {
			for i := 0; i < n; i++ {
				b, _, err := transport.EncodeBody(invokeReq, true)
				if err != nil {
					return err
				}
				sink = b
			}
			return nil
		})),
		add("wire.invoke_decode_ns", timed(func(n int) error {
			for i := 0; i < n; i++ {
				var r svc.InvokeReq
				if err := transport.Decode(body, &r); err != nil {
					return err
				}
			}
			return nil
		})),
		add("wire.renew_batch_decode_ns", timed(func(n int) error {
			for i := 0; i < n; i++ {
				var r core.RenewBatchReq
				if err := transport.Decode(renewBatchBody, &r); err != nil {
					return err
				}
			}
			return nil
		})),
	)
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func auditExtension(version int) (core.Extension, error) {
	code, err := readAdvice("audit")
	if err != nil {
		return core.Extension{}, err
	}
	return core.Extension{
		ID: fmt.Sprintf("hall/audit-%d", version), Name: "audit", Version: version, Caps: []string{"clock", "store"},
		Advices: []core.AdviceSpec{{Name: "audit", Kind: core.KindCallBefore, Pattern: "Robot.*(..)", Code: code}},
	}, nil
}

func signLayers(add func(string, layerLoop) error) error {
	signer, err := sign.NewSigner("hall")
	if err != nil {
		return err
	}
	trust := sign.NewTrustStore()
	trust.Trust(signer.Name, signer.PublicKey())
	e, err := auditExtension(1)
	if err != nil {
		return err
	}
	payload, err := e.Canonical()
	if err != nil {
		return err
	}
	sig := signer.Sign(payload)
	return firstErr(
		add("sign.sign_ns", timed(func(n int) error {
			for i := 0; i < n; i++ {
				sink = signer.Sign(payload)
			}
			return nil
		})),
		add("sign.verify_ns", timed(func(n int) error {
			for i := 0; i < n; i++ {
				if err := trust.Verify(payload, sig); err != nil {
					return err
				}
			}
			return nil
		})),
	)
}

// fig2Chain is a local service whose Robot.moveArm carries the Fig. 2 stack
// (session, accesscontrol, logger), plus the bodies for timing one by one.
func fig2Chain() (*svc.Registry, map[string]aop.Body, error) {
	builtins := core.NewBuiltins()
	ext.RegisterAll(builtins)
	env := &core.Env{NodeName: "robot", Host: ext.NewNodeHost(ext.NodeHostConfig{Clock: clock.Real{}})}
	bodies := make(map[string]aop.Body)
	var advices []aop.Advice
	for _, name := range []string{ext.BSession, ext.BAccessControl, ext.BLogger} {
		var cfg map[string]string
		if name == ext.BAccessControl {
			cfg = map[string]string{"allow": "operator"}
		}
		body, err := builtins.New(name, env, cfg)
		if err != nil {
			return nil, nil, err
		}
		bodies[name] = body
		advices = append(advices, aop.BeforeCall("Robot.*(..)", body))
	}
	weaver := weave.New()
	services := svc.NewRegistry(weaver)
	services.Register("Robot", "moveArm", []string{"int"}, "int", func(args []lvm.Value) (lvm.Value, error) {
		return args[0], nil
	})
	if err := weaver.Insert(&aop.Aspect{Name: "fig2", Advices: advices}); err != nil {
		return nil, nil, err
	}
	return services, bodies, nil
}

func weaveLayers(add func(string, layerLoop) error) error {
	w := weave.New()
	sig := aop.Signature{Class: "Void", Method: "call", Return: "void"}
	inactive := w.RegisterMethodSite(aop.MethodEntry, sig)
	woven := w.RegisterMethodSite(aop.MethodEntry, aop.Signature{Class: "Robot", Method: "moveArm", Return: "int"})
	if err := w.Insert(&aop.Aspect{Name: "noop", Advices: []aop.Advice{
		aop.BeforeCall("Robot.*(..)", aop.BodyFunc(func(*aop.Context) error { return nil })),
	}}); err != nil {
		return err
	}
	services, bodies, err := fig2Chain()
	if err != nil {
		return err
	}
	args := []lvm.Value{lvm.Int(30)}
	timeBody := func(name string) layerLoop {
		body := bodies[name]
		return timed(func(n int) error {
			for i := 0; i < n; i++ {
				ctx := weave.GetContext()
				ctx.Kind, ctx.Sig, ctx.Args = aop.MethodEntry, woven.Sig, args
				ctx.Put(svc.MetaCaller, lvm.Str("operator"))
				ctx.Put(ext.SessionCallerKey, lvm.Str("operator"))
				err := body.Exec(ctx)
				if err == nil {
					err = ctx.Aborted()
				}
				weave.PutContext(ctx)
				if err != nil {
					return err
				}
			}
			return nil
		})
	}
	return firstErr(
		add("weave.fast_path_ns", timed(func(n int) error {
			active := false
			for i := 0; i < n; i++ {
				active = active || inactive.Active()
			}
			sink = active
			return nil
		})),
		add("weave.dispatch_ns", timed(func(n int) error {
			ctx := &aop.Context{Kind: aop.MethodEntry, Sig: woven.Sig}
			for i := 0; i < n; i++ {
				if err := woven.Dispatch(ctx); err != nil {
					return err
				}
			}
			return nil
		})),
		add("weave.chain_ns", timed(func(n int) error {
			for i := 0; i < n; i++ {
				v, err := services.Invoke("Robot", "moveArm", "operator", args)
				if err != nil {
					return err
				}
				sink = v
			}
			return nil
		})),
		add("ext.session_ns", timeBody(ext.BSession)),
		add("ext.accesscontrol_ns", timeBody(ext.BAccessControl)),
		add("ext.logger_ns", timeBody(ext.BLogger)),
	)
}

// hostDispatchSource is advice making one store.get host call.
const hostDispatchSource = `
class Ext
  method void advice()
    push "k"
    hostcall store.get 1
    pop
    retv
  end
end`

func sandboxLayers(add func(string, layerLoop) error) error {
	timeAdvice := func(prove bool) (layerLoop, error) {
		host := sandbox.NewHost(ext.NewNodeHost(ext.NodeHostConfig{KV: store.NewKV()}), sandbox.NewPerms(sandbox.CapStore))
		if prove {
			host.Prove("store.get")
		}
		body, err := core.CompileAdvice(hostDispatchSource, host)
		if err != nil {
			return nil, err
		}
		ctx := &aop.Context{Sig: aop.Signature{Class: "Robot", Method: "moveArm"}}
		return timed(func(n int) error {
			for i := 0; i < n; i++ {
				if err := body.Exec(ctx); err != nil {
					return err
				}
			}
			return nil
		}), nil
	}
	proven, err := timeAdvice(true)
	if err != nil {
		return err
	}
	checked, err := timeAdvice(false)
	if err != nil {
		return err
	}
	return firstErr(add("sandbox.hostcall_proven_ns", proven), add("sandbox.hostcall_checked_ns", checked))
}

func coreLayers(add func(string, layerLoop) error) error {
	e, err := auditExtension(1)
	if err != nil {
		return err
	}
	signer, err := sign.NewSigner("hall")
	if err != nil {
		return err
	}
	trust := sign.NewTrustStore()
	trust.Trust(signer.Name, signer.PublicKey())
	weaver := weave.New()
	svc.NewRegistry(weaver).Register("Robot", "moveArm", []string{"int"}, "int", func(args []lvm.Value) (lvm.Value, error) {
		return args[0], nil
	})
	receiver, err := core.NewReceiver(core.ReceiverConfig{
		NodeName: "robot", Weaver: weaver, Trust: trust, Policy: sandbox.AllowAll(),
		Host: ext.NewNodeHost(ext.NodeHostConfig{KV: store.NewKV(), Clock: clock.Real{}}),
	})
	if err != nil {
		return err
	}
	version := 0
	return firstErr(
		add("core.admit_ns", timed(func(n int) error {
			for i := 0; i < n; i++ {
				rep, err := core.AnalyzeExtension(e)
				if err != nil {
					return err
				}
				if err := core.CheckAdmission(e, rep, nil, nil, signer.Name); err != nil {
					return err
				}
			}
			return nil
		})),
		// Each install is a new version, so it replaces the woven aspect
		// rather than refreshing the lease. Signing is not timed.
		add("core.receiver_install_ns", func(n int) (time.Duration, error) {
			signed := make([]core.SignedExtension, n)
			for i := range signed {
				version++
				ev := e
				ev.Version = version
				s, err := core.Sign(signer, ev)
				if err != nil {
					return 0, err
				}
				signed[i] = s
			}
			t0 := now()
			for _, s := range signed {
				if _, err := receiver.Install(s, "hall", time.Hour); err != nil {
					return 0, err
				}
			}
			return since(t0), nil
		}),
	)
}

func jitLayers(add func(string, layerLoop) error) error {
	app, err := newWovenApp(1, nil)
	if err != nil {
		return err
	}
	for _, p := range app.progs {
		for m, name := range []string{"jit.run_ns.", "jit.plain_run_ns."} {
			if err := add(name+p.spec.Name, timed(func(n int) error {
				for i := 0; i < n; i++ {
					if _, ok := app.runOnce(p, m); !ok {
						return fmt.Errorf("%s returned a wrong result", p.spec.Name)
					}
				}
				return nil
			})); err != nil {
				return err
			}
		}
	}
	return nil
}
