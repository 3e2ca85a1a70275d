package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/jit"
	"repro/internal/lvm"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/weave"
	"repro/internal/workload"
)

// app_woven is the node-side cost of the platform on application code
// (experiments E1–E3): the JIT runs the four workload programs with hook
// stubs planted everywhere and audit.lasm — installed through Receiver.Install
// — woven before Calls.helper, so the calls program dispatches 150 advice
// executions with proven host calls per run while the other three only pass
// inactive stubs. One operation is one round: the four programs once each on
// the woven machine, in seeded order. Every round is followed by the same
// programs on a hooks-off machine, for the overhead ratio.

type program struct {
	spec    workload.Spec
	want    int64
	meth    [2]*lvm.Method // woven, plain
	self    [2]*lvm.Object
	wovenNs []float64
	plainNs []float64
}

type appWoven struct {
	rec      *recorder
	slot     opSlot
	machines [2]*jit.Machine // woven, plain
	progs    []*program
	rng      *rand.Rand
	ratios   []float64 // woven/plain time per round
}

// newWovenApp builds both machines and installs audit.lasm on the woven one
// through a receiver; seed orders the programs of each round.
func newWovenApp(seed int64, rec *recorder) (*appWoven, error) {
	code, err := readAdvice("audit")
	if err != nil {
		return nil, err
	}
	signer, err := sign.NewSigner("hall")
	if err != nil {
		return nil, err
	}
	trust := sign.NewTrustStore()
	trust.Trust(signer.Name, signer.PublicKey())
	weaver := weave.New()
	a := &appWoven{rec: rec, rng: rand.New(rand.NewSource(seed))}
	a.machines[0] = jit.NewMachine(workload.Program(), weaver, nil)
	a.machines[1] = jit.NewMachine(workload.Program(), nil, nil)
	for _, m := range a.machines {
		m.MaxSteps = 1 << 62
		if _, err := m.CompileAll(); err != nil {
			return nil, err
		}
	}
	var host lvm.Host = ext.NewNodeHost(ext.NodeHostConfig{KV: store.NewKV(), Clock: clock.Real{}})
	if rec != nil {
		host = &spanHost{inner: host, rec: rec, slot: &a.slot, parent: "jit.run"}
	}
	receiver, err := core.NewReceiver(core.ReceiverConfig{
		NodeName: "app", Weaver: weaver, Trust: trust, Policy: sandbox.AllowAll(), Host: host,
	})
	if err != nil {
		return nil, err
	}
	signed, err := core.Sign(signer, core.Extension{
		ID: "hall/audit", Name: "audit", Version: 1, Caps: []string{"clock", "store"},
		Advices: []core.AdviceSpec{{Name: "audit", Kind: core.KindCallBefore, Pattern: "Calls.helper(..)", Code: code}},
	})
	if err != nil {
		return nil, err
	}
	if _, err := receiver.Install(signed, "hall", time.Hour); err != nil {
		return nil, err
	}
	for _, spec := range workload.All() {
		want, err := workload.Expected(spec.Name, spec.Arg)
		if err != nil {
			return nil, err
		}
		p := &program{spec: spec, want: want}
		for i, m := range a.machines {
			p.meth[i] = m.Prog.Method(spec.Class, spec.Method)
			p.self[i] = m.Prog.Class(spec.Class).New()
		}
		a.progs = append(a.progs, p)
	}
	return a, nil
}

func setupAppWoven(cfg config, rec *recorder) (bench, error) {
	return newWovenApp(cfg.seed, rec)
}

// runOnce runs p on machine m (0 woven, 1 plain) and checks its result.
func (a *appWoven) runOnce(p *program, m int) (time.Duration, bool) {
	arg := []lvm.Value{lvm.Int(p.spec.Arg)}
	t0 := now()
	v, err := a.machines[m].Invoke(p.meth[m], p.self[m], arg)
	d := since(t0)
	return d, err == nil && v.K == lvm.KInt && v.I == p.want
}

func (a *appWoven) run(b *budget) phase {
	var p phase
	for b.next() {
		order := a.rng.Perm(len(a.progs))
		ok := true
		op := a.rec.beginOp(&a.slot)
		t0 := now()
		for _, i := range order {
			var start int64
			if op != nil {
				start = a.rec.enter(op, true)
			}
			d, good := a.runOnce(a.progs[i], 0)
			if op != nil {
				a.rec.exit(op, true, "jit.run", "op", a.progs[i].spec.Name, start)
			}
			a.progs[i].wovenNs = append(a.progs[i].wovenNs, float64(d))
			ok = ok && good
		}
		woven := since(t0)
		a.rec.endOp(&a.slot, op, "op")
		var plain time.Duration
		for _, i := range order {
			d, good := a.runOnce(a.progs[i], 1)
			a.progs[i].plainNs = append(a.progs[i].plainNs, float64(d))
			plain += d
			ok = ok && good
		}
		a.ratios = append(a.ratios, float64(woven)/float64(plain))
		p.attempted++
		if !ok {
			p.failed++
			p.wrong++
			continue
		}
		p.ok(woven)
	}
	return p
}

func (a *appWoven) report(w io.Writer) {
	fmt.Fprintf(w, "app_overhead_ratio %s (woven/hooks-off time per round)\n", summarize(a.ratios))
	a.ratios = nil
	for _, p := range a.progs {
		fmt.Fprintf(w, "jit.run_ns.%s %s\njit.plain_run_ns.%s %s\n", p.spec.Name, summarize(p.wovenNs), p.spec.Name, summarize(p.plainNs))
		p.wovenNs, p.plainNs = nil, nil
	}
}

func (a *appWoven) close() {}
