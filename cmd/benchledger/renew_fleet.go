package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/metrics"
	"repro/internal/sign"
	"repro/internal/trace"
	"repro/internal/transport"
)

// renew_fleet is the fleet keepalive path: a base configured like
// cmd/basestation keeps every lease of a fleet of lightweight fake nodes
// alive over the in-process fabric, on a manual clock the benchmark drives.
// Each node holds three leases: two granted together at adapt time renew
// through one midas.renewBatch, the third (an extension added half a window
// later) renews alone through midas.renew. One operation is one renewal
// window: two half-window clock steps, each waited out until the scheduler
// has quiesced.

const (
	fleetLease = 10 * time.Second // cmd/basestation's -lease default
	fleetHalf  = fleetLease / 4   // half of the renewal window lease*fraction
	// fleetNodes is the fleet of a full-length run, small enough that a 25 s
	// run holds 700–900 windows; shorter runs get a smaller fleet.
	fleetNodes = 2000
)

// fleetStats counts what the fake nodes saw; the per-window checks read it.
type fleetStats struct {
	batchCalls  atomic.Int64
	singleCalls atomic.Int64
	renewed     atomic.Int64
	expired     atomic.Int64 // renewals that arrived after the lease's deadline
	unknown     atomic.Int64 // renewals of leases the node never granted
}

// fakeNode serves the receiver's install and renewal wire surface straight
// out of a lease table, with none of a real receiver's weaving.
type fakeNode struct {
	name  string
	clk   clock.Clock
	stats *fleetStats

	mu       sync.Mutex
	seq      int
	deadline map[string]time.Time // lease ID -> expiry
}

func (n *fakeNode) grantLocked(durMillis int64) string {
	n.seq++
	id := n.name + "-L" + strconv.Itoa(n.seq)
	n.deadline[id] = n.clk.Now().Add(time.Duration(durMillis) * time.Millisecond)
	return id
}

func (n *fakeNode) renewLocked(id string, durMillis int64) string {
	d, ok := n.deadline[id]
	switch {
	case !ok:
		n.stats.unknown.Add(1)
		return "unknown lease " + id
	case n.clk.Now().After(d):
		n.stats.expired.Add(1)
	}
	n.deadline[id] = n.clk.Now().Add(time.Duration(durMillis) * time.Millisecond)
	n.stats.renewed.Add(1)
	return ""
}

func (n *fakeNode) serveOn(mux *transport.Mux) {
	transport.Register(mux, core.MethodApplyBatch, func(_ context.Context, req core.ApplyBatchReq) (core.ApplyBatchResp, error) {
		n.mu.Lock()
		defer n.mu.Unlock()
		resp := core.ApplyBatchResp{Installs: make([]core.InstallItemResp, len(req.Installs)), Revokes: make([]core.RevokeItemResp, len(req.Revokes))}
		for i, ins := range req.Installs {
			resp.Installs[i].LeaseID = n.grantLocked(ins.DurMillis)
		}
		return resp, nil
	})
	transport.Register(mux, core.MethodInstall, func(_ context.Context, req core.InstallReq) (core.InstallResp, error) {
		n.mu.Lock()
		defer n.mu.Unlock()
		return core.InstallResp{LeaseID: n.grantLocked(req.DurMillis)}, nil
	})
	transport.Register(mux, core.MethodRenewE, func(_ context.Context, req core.RenewExtReq) (core.RenewExtResp, error) {
		n.stats.singleCalls.Add(1)
		n.mu.Lock()
		defer n.mu.Unlock()
		if e := n.renewLocked(req.LeaseID, req.DurMillis); e != "" {
			return core.RenewExtResp{}, fmt.Errorf("%s", e)
		}
		return core.RenewExtResp{DurMillis: req.DurMillis}, nil
	})
	transport.Register(mux, core.MethodRenewBatch, func(_ context.Context, req core.RenewBatchReq) (core.RenewBatchResp, error) {
		n.stats.batchCalls.Add(1)
		n.mu.Lock()
		defer n.mu.Unlock()
		resp := core.RenewBatchResp{Items: make([]core.RenewItemResp, len(req.Items))}
		for i, it := range req.Items {
			resp.Items[i].Err = n.renewLocked(it.LeaseID, it.DurMillis)
			resp.Items[i].DurMillis = it.DurMillis
		}
		return resp, nil
	})
}

type renewFleet struct {
	rec   *recorder
	slot  opSlot
	nodes int
	clk   *clock.Manual
	base  *core.Base
	reg   *metrics.Registry
	stats *fleetStats
	adapt summary // ns per AdaptNode of the set-up's adapt phase
}

// fleetExtension is a policy-set entry; the fake nodes never run its advice.
func fleetExtension(name string) core.Extension {
	return core.Extension{
		ID: "hall/" + name, Name: name, Version: 1,
		Advices: []core.AdviceSpec{{Name: "a", Kind: core.KindCallBefore, Pattern: "Motor.*(..)", Builtin: ext.BMoveControl}},
	}
}

func setupRenewFleet(cfg config, rec *recorder) (bench, error) {
	f := &renewFleet{rec: rec, nodes: cfg.scaled(fleetNodes), clk: clock.NewManual(time.Unix(0, 0)), reg: metrics.New(), stats: &fleetStats{}}
	fabric := transport.NewInProc()
	names := make([]string, f.nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node-%05d", i)
		n := &fakeNode{name: names[i], clk: f.clk, stats: f.stats, deadline: make(map[string]time.Time, 3)}
		mux := transport.NewMux()
		n.serveOn(mux)
		var h transport.Handler = mux
		if rec != nil {
			h = &spanHandler{inner: mux, rec: rec, slot: &f.slot, name: "transport.serve", parent: "transport.call"}
		}
		if _, err := fabric.Serve(names[i], h); err != nil {
			return nil, err
		}
	}
	signer, err := sign.NewSigner("hall")
	if err != nil {
		return nil, err
	}
	var caller transport.Caller = fabric.Node("hall")
	if rec != nil {
		caller = &spanCaller{inner: caller, rec: rec, slot: &f.slot, name: "transport.call", parent: "op", top: true}
	}
	// Shards, batch size and workers are cmd/basestation's defaults.
	f.base, err = core.NewBase(core.BaseConfig{
		Name: "hall", Addr: "hall", Caller: caller, Signer: signer, Clock: f.clk,
		LeaseDur: fleetLease, Shards: 16, RenewBatch: 64, RenewWorkers: 8,
	})
	if err != nil {
		return nil, err
	}
	tracer := trace.New(cfg.seed)
	tracer.SetSampler(trace.SamplerConfig{Rate: 0.01, Seed: cfg.seed, SlowThreshold: 100 * time.Millisecond})
	f.base.Trace(tracer)
	f.base.Instrument(f.reg)
	for _, name := range []string{"policy", "telemetry"} {
		if err := f.base.AddExtension(fleetExtension(name)); err != nil {
			f.close()
			return nil, err
		}
	}
	// Nodes arrive in seeded order; each adapt is one batched apply of the
	// two-extension policy set.
	rng := rand.New(rand.NewSource(cfg.seed))
	adapt := make([]float64, 0, f.nodes)
	for _, i := range rng.Perm(f.nodes) {
		t0 := now()
		if err := f.base.AdaptNode(names[i], names[i]); err != nil {
			f.close()
			return nil, fmt.Errorf("adapt %s: %w", names[i], err)
		}
		adapt = append(adapt, float64(since(t0)))
	}
	f.adapt = summarize(adapt)
	// Half a window later the third extension arrives and is pushed to every
	// node on its own, so its lease renews out of phase with the first two.
	f.clk.Advance(fleetHalf)
	f.quiesce()
	if err := f.base.AddExtension(fleetExtension("audit")); err != nil {
		f.close()
		return nil, err
	}
	if got, want := f.base.ScheduledRenewals(), 3*f.nodes; got != want {
		f.close()
		return nil, fmt.Errorf("%d leases scheduled after set-up, want %d", got, want)
	}
	return f, nil
}

// quiesce waits until the renewal scheduler has processed every elapsed tick
// and has no renewal queued or in flight. It sleeps between polls so the
// waiting goroutine does not take a CPU from the renewal workers.
func (f *renewFleet) quiesce() {
	for !f.base.RenewalsQuiesced() {
		time.Sleep(20 * time.Microsecond) //lint:allow clockcheck (real-time poll of the scheduler barrier)
	}
}

func (f *renewFleet) run(b *budget) phase {
	var p phase
	for b.next() {
		b0, s0 := f.stats.batchCalls.Load(), f.stats.singleCalls.Load()
		r0 := f.stats.renewed.Load()
		fail0 := f.reg.CounterValue("lease.renew_failures") + f.reg.CounterValue("lease.renew_retries")
		op := f.rec.beginOp(&f.slot)
		t0 := now()
		f.clk.Advance(fleetHalf)
		f.quiesce()
		f.clk.Advance(fleetHalf)
		f.quiesce()
		d := since(t0)
		f.rec.endOp(&f.slot, op, "op")
		p.attempted++
		n := int64(f.nodes)
		ok := f.stats.batchCalls.Load()-b0 == n && f.stats.singleCalls.Load()-s0 == n &&
			f.stats.renewed.Load()-r0 == 3*n && f.stats.expired.Load() == 0 && f.stats.unknown.Load() == 0 &&
			f.reg.CounterValue("lease.renew_failures")+f.reg.CounterValue("lease.renew_retries") == fail0 &&
			f.base.ScheduledRenewals() == 3*f.nodes
		if !ok {
			p.failed++
			p.wrong++
			continue
		}
		p.ok(d)
	}
	return p
}

func (f *renewFleet) report(w io.Writer) {
	fmt.Fprintf(w, "adapt %s ns as measured (%d nodes, last set-up)\n", f.adapt, f.nodes)
	fmt.Fprintf(w, "fleet %d nodes, %d leases, %d degraded\n", f.nodes, f.base.ScheduledRenewals(), len(f.base.Degraded()))
}

func (f *renewFleet) close() { f.base.Close() }
