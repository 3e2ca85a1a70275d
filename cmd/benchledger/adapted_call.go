package main

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/lvm"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/transport"
)

// adapted_call is the paper's adapted remote call (Fig. 2, experiment E6) on
// the live TCP path: two closed-loop clients share one TCPCaller and call
// Robot.moveArm on a node assembled like cmd/node, which a real base adapted
// over TCP with accesscontrol (requiring the session bundle) and logger.
// Connections: client→node and base→node. Both callers go through
// uncancelled (node.go), so no call fails to the pooled connection race.

const adaptedClients = 2

type adaptedCall struct {
	rec     *recorder
	node    *node
	base    *core.Base
	baseTCP *transport.TCPCaller
	client  *transport.TCPCaller
	callers [adaptedClients]transport.Caller
	slots   [adaptedClients]opSlot
	rngs    [adaptedClients]*rand.Rand
	conns0  uint64
}

// fig2Extensions are the base's presets for the adapted call, as cmd/basestation
// builds them for -ext accesscontrol:allow=operator -ext logger.
func fig2Extensions() []core.Extension {
	return []core.Extension{
		{
			ID: "hall/accesscontrol-0", Name: ext.BAccessControl, Version: 1,
			Advices: []core.AdviceSpec{{Name: "authorize", Kind: core.KindCallBefore, Pattern: "*.*(..)",
				Builtin: ext.BAccessControl, Config: map[string]string{"allow": "operator"}}},
			Requires: []string{ext.SessionBundleName},
			Caps:     []string{"session"},
		},
		{
			ID: "hall/logger-1", Name: ext.BLogger, Version: 1,
			Advices: []core.AdviceSpec{{Name: "log", Kind: core.KindCallBefore, Pattern: "*.*(..)",
				Builtin: ext.BLogger}},
			Caps: []string{"log"},
		},
	}
}

func setupAdaptedCall(cfg config, rec *recorder) (bench, error) {
	signer, err := sign.NewSigner("hall")
	if err != nil {
		return nil, err
	}
	n, err := newNode("robot-1", signer, cfg.seed, rec, &opSlot{})
	if err != nil {
		return nil, err
	}
	a := &adaptedCall{rec: rec, node: n, baseTCP: transport.NewTCPCaller(), client: transport.NewTCPCaller()}
	fail := func(err error) (bench, error) {
		a.close()
		return nil, err
	}
	a.base, err = core.NewBase(core.BaseConfig{Name: "hall", Addr: "hall", Caller: uncancelled{a.baseTCP}, Signer: signer, Store: store.NewMemory()})
	if err != nil {
		return fail(err)
	}
	for _, e := range fig2Extensions() {
		if err := a.base.AddExtension(e); err != nil {
			return fail(err)
		}
	}
	if err := a.base.AdaptNode(n.name, n.srv.Addr()); err != nil {
		return fail(fmt.Errorf("adapt: %w", err))
	}
	if got := installedNames(n.receiver); got != "accesscontrol@1 logger@1 session@1" {
		return fail(fmt.Errorf("adapted node holds %q", got))
	}
	for i := range a.callers {
		a.callers[i] = uncancelled{a.client}
		if rec != nil {
			a.callers[i] = &spanCaller{inner: a.callers[i], rec: rec, slot: &a.slots[i], name: "transport.call", parent: "op", top: true}
		}
		a.rngs[i] = rand.New(rand.NewSource(cfg.seed*1000 + int64(i)))
	}
	a.conns0 = n.reg.CounterValue("transport.serve_wire_conns")
	return a, nil
}

func (a *adaptedCall) run(b *budget) phase {
	var wg sync.WaitGroup
	var out [adaptedClients]phase
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = a.loop(i, b)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(out); i++ {
		out[0].add(out[i])
	}
	return out[0]
}

// loop is closed-loop client i.
func (a *adaptedCall) loop(i int, b *budget) phase {
	var p phase
	addr := a.node.srv.Addr()
	for b.next() {
		arg := a.rngs[i].Int63n(1 << 20)
		op := a.rec.beginOp(&a.slots[i])
		t0 := now()
		v, err := svc.Call(a.callers[i], addr, "Robot", "moveArm", "operator", lvm.Int(arg))
		d := since(t0)
		a.rec.endOp(&a.slots[i], op, "op")
		p.attempted++
		switch {
		case err != nil:
			p.failed++
		case v.K != lvm.KInt || v.I != arg:
			p.failed++
			p.wrong++
		default:
			p.ok(d)
		}
	}
	return p
}

func (a *adaptedCall) report(w io.Writer) {
	fmt.Fprintf(w, "transport.conns_opened %d (server connections accepted since set-up)\n",
		a.node.reg.CounterValue("transport.serve_wire_conns")-a.conns0)
}

func (a *adaptedCall) close() {
	a.client.Close()
	if a.base != nil {
		a.base.Close()
	}
	a.baseTCP.Close()
	a.node.close()
}
