// Crash-recovery scenarios: durable journals, anti-entropy reconciliation and
// the parking of unreachable nodes played out over the deterministic network
// simulator. Like the other scenario tests these run on a manual clock with a
// seeded fault stream; set SIMNET_SEED to replay a failing run exactly.
package repro

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sign"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// recoveryBaseOpts selects the robustness features a scenario base runs with.
type recoveryBaseOpts struct {
	journal        *core.BaseJournal
	reconcileEvery time.Duration
}

// newRecoveryBase mirrors newBase but wires in a state journal and/or the
// periodic reconciler.
func (w *simWorld) newRecoveryBase(name string, signer *sign.Signer, o recoveryBaseOpts) *scenarioBase {
	w.t.Helper()
	var err error
	if signer == nil {
		if signer, err = sign.NewSigner(name); err != nil {
			w.t.Fatal(err)
		}
	}
	b := &scenarioBase{name: name, reg: metrics.New(), signer: signer}
	b.base, err = core.NewBase(core.BaseConfig{
		Name:           name,
		Addr:           name,
		Caller:         w.net.Node(name),
		Signer:         signer,
		Clock:          w.clk,
		CallTimeout:    time.Hour, // the simulated clock governs; simnet fails lost calls at once
		Journal:        o.journal,
		ReconcileEvery: o.reconcileEvery,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(b.base.Close)
	b.base.Instrument(b.reg)
	mux := transport.NewMux()
	b.base.ServeOn(mux)
	stop, err := w.net.Serve(name, mux)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(stop)
	return b
}

// Scenario R1 — base crash and restart mid-push, recovered from the journal:
// the base loses the link right as it pushes a second extension, crashes, and
// a restarted base replays its state journal (resuming the surviving lease
// rather than re-pushing it) and reconciles the node back to the full policy
// set. For the same seed the final installed set is identical, by DeepEqual,
// to a run where the base never crashed.
func TestScenarioBaseCrashMidPushConverges(t *testing.T) {
	seed := scenarioSeed(t)

	run := func(crash bool) []core.ExtensionInfo {
		clk := clock.NewManual(time.Unix(0, 0))
		net := simnet.New(clk, seed)
		defer net.Close()
		w := &simWorld{t: t, clk: clk, net: net, seed: seed}
		dir := t.TempDir()
		j, err := core.OpenBaseJournal(dir)
		if err != nil {
			t.Fatal(err)
		}

		b1 := w.newRecoveryBase("base-1", nil, recoveryBaseOpts{journal: j})
		n := w.newNode("robot1", b1.signer)
		if err := b1.base.AddExtension(noopScenarioExt("guard", 1)); err != nil {
			t.Fatal(err)
		}
		if err := b1.base.AdaptNode("robot1", "robot1"); err != nil {
			t.Fatal(err)
		}

		if !crash {
			if err := b1.base.AddExtension(noopScenarioExt("monitor", 1)); err != nil {
				t.Fatal(err)
			}
			w.advance(25*time.Second, time.Second)
			return n.receiver.Installed()
		}

		// The link drops right as "monitor" is pushed: the push is lost, and
		// the base dies before it can retry.
		net.PartitionBoth("base-1", "robot1")
		if err := b1.base.AddExtension(noopScenarioExt("monitor", 1)); err != nil {
			t.Fatal(err)
		}
		net.Crash("base-1")
		b1.base.Close()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		// A fresh base process on the same address replays the journal: the
		// node and its surviving "guard" lease come back without a re-push.
		net.Wipe("base-1")
		j2, err := core.OpenBaseJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		b2 := w.newRecoveryBase("base-1", b1.signer, recoveryBaseOpts{journal: j2})
		if err := b2.base.AddExtension(noopScenarioExt("guard", 1)); err != nil {
			t.Fatal(err)
		}
		if err := b2.base.AddExtension(noopScenarioExt("monitor", 1)); err != nil {
			t.Fatal(err)
		}
		restored, err := b2.base.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if restored != 1 {
			t.Fatalf("restored = %d nodes, want 1", restored)
		}

		net.HealAll()
		res := b2.base.ReconcileNow(context.Background())
		r := res["robot1"]
		if len(r.Repushed) != 1 || r.Repushed[0] != "monitor" {
			t.Fatalf("repushed = %v, want [monitor] (the push the crash ate)", r.Repushed)
		}
		if len(r.Revoked) != 0 {
			t.Fatalf("revoked = %v, want none", r.Revoked)
		}
		if got := n.counter("ext.installs"); got != 2 {
			t.Fatalf("ext.installs = %d, want 2 (guard was resumed, not re-pushed)", got)
		}
		w.advance(25*time.Second, time.Second)
		return n.receiver.Installed()
	}

	want := run(false)
	got := run(true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("crash run diverged from fault-free run:\ncrash:      %+v\nfault-free: %+v", got, want)
	}
	if len(want) != 2 {
		t.Fatalf("fault-free run installed %d extensions, want 2", len(want))
	}
}

// Scenario R2 — receiver wiped during a partition: the node loses the link,
// the base's renewal cycle gets no answer and the node is parked as degraded
// — while partitioned, reconcile rounds fail at the inventory probe and no
// round pushes anything (no re-push storm into the partition). Meanwhile the
// node crashes and loses all state. When the link heals, the first inventory
// diff sees the empty node and re-adapts it from scratch.
func TestScenarioReceiverWipedDuringPartition(t *testing.T) {
	w := newSimWorld(t)
	b := w.newRecoveryBase("base-1", nil, recoveryBaseOpts{
		reconcileEvery: 7 * time.Second,
	})
	w.newNode("robot1", b.signer)
	for _, name := range []string{"guard", "monitor"} {
		if err := b.base.AddExtension(noopScenarioExt(name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}

	// The node walks out of range. The renewal at 5s and its retries on the
	// 0.625s tick up to the lease's end at 10s fail unanswered, so the base,
	// which runs a reconciler, degrades instead of forgetting the node.
	w.net.PartitionBoth("base-1", "robot1")
	w.advance(10*time.Second, time.Second)
	waitFor(t, "degradation", func() bool { return len(b.base.Degraded()) == 1 })
	if got := b.counter("base.departures"); got != 0 {
		t.Fatalf("base.departures = %d, want 0 (degraded, not departed)", got)
	}
	// A reconcile round's inventory probe cannot cross the partition.
	if r := b.base.ReconcileNow(context.Background())["robot1"]; r.Err == "" {
		t.Fatalf("reconcile through the partition succeeded: %+v", r)
	}

	// Mid-partition the node dies and loses everything.
	w.net.Wipe("robot1")
	n2 := w.newNode("robot1", b.signer)

	// Two more reconcile periods inside the partition: rounds run, but their
	// inventory probes fail, and nothing is pushed at the node.
	w.advance(14*time.Second, time.Second)
	if got := b.counter("base.reconcile_repushes"); got != 0 {
		t.Fatalf("reconcile_repushes = %d while partitioned, want 0", got)
	}
	if got := n2.counter("ext.installs"); got != 0 {
		t.Fatalf("wiped node saw %d installs while partitioned, want 0", got)
	}

	// The link heals: the next reconcile probe lands, the first inventory
	// diff sees the wiped node and the whole policy set is re-pushed.
	w.net.HealAll()
	w.advance(15*time.Second, time.Second)
	waitFor(t, "re-adaptation after heal", func() bool {
		return n2.receiver.Has("guard") && n2.receiver.Has("monitor")
	})
	waitFor(t, "promotion from degraded", func() bool {
		return len(b.base.Degraded()) == 0 && len(b.base.Adapted()) == 1
	})
	if got := n2.counter("ext.installs"); got != 2 {
		t.Fatalf("ext.installs = %d at the wiped node, want 2 fresh installs", got)
	}
	if got := n2.counter("ext.refreshes"); got != 0 {
		t.Fatalf("ext.refreshes = %d, want 0 (the wipe left nothing to refresh)", got)
	}
	st := b.base.Status()
	if st.Drift.Repushes != 2 {
		t.Fatalf("drift repushes = %d, want 2", st.Drift.Repushes)
	}
	// And the re-pushed leases stay alive.
	w.advance(25*time.Second, time.Second)
	if !n2.receiver.Has("guard") || !n2.receiver.Has("monitor") {
		t.Fatal("re-adapted extensions lapsed")
	}
}

// Scenario R3 — missed revoke cleaned up by reconciliation: the base retires
// an extension while the node is partitioned, so the revoke never arrives.
// After the heal, one reconcile round spots the orphan in the inventory diff
// and withdraws it — observed at the node as a withdrawal (revoke path), not
// an expiry, with the extension's shutdown procedure run exactly once.
func TestScenarioMissedRevokeReconciled(t *testing.T) {
	w := newSimWorld(t)
	b := w.newRecoveryBase("base-1", nil, recoveryBaseOpts{})
	n := w.newNode("robot1", b.signer)
	if err := b.base.AddExtension(noopScenarioExt("guard", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.base.AddExtension(trackedScenarioExt("cleanup", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.base.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}

	// The partition eats the revoke: the base retires "cleanup" from the
	// policy set, but the node still holds it under a live lease.
	w.net.PartitionBoth("base-1", "robot1")
	if err := b.base.RemoveExtension("cleanup"); err != nil {
		t.Fatal(err)
	}
	if !n.receiver.Has("cleanup") {
		t.Fatal("revoke reached the node through the partition")
	}

	w.net.HealAll()
	res := b.base.ReconcileNow(context.Background())
	r := res["robot1"]
	if len(r.Revoked) != 1 || r.Revoked[0] != "cleanup" {
		t.Fatalf("revoked = %v, want [cleanup]", r.Revoked)
	}
	if n.receiver.Has("cleanup") {
		t.Fatal("orphan survived reconciliation")
	}
	if !n.receiver.Has("guard") {
		t.Fatal("reconciliation removed a desired extension")
	}
	if got := n.counter("ext.withdrawals"); got != 1 {
		t.Fatalf("ext.withdrawals = %d, want 1 (cleaned by revoke)", got)
	}
	if got := n.counter("ext.expiries"); got != 0 {
		t.Fatalf("ext.expiries = %d, want 0 (reconciliation beat the lease timeout)", got)
	}
	if got := n.shutdowns.Load(); got != 1 {
		t.Fatalf("shutdowns = %d, want exactly 1", got)
	}
	if got := b.counter("base.reconcile_orphans"); got != 1 {
		t.Fatalf("base.reconcile_orphans = %d, want 1", got)
	}

	// The surviving lease keeps renewing; nothing ever expires.
	w.advance(25*time.Second, time.Second)
	if !n.receiver.Has("guard") {
		t.Fatal("guard lapsed after reconciliation")
	}
	if got := n.counter("ext.expiries"); got != 0 {
		t.Fatalf("ext.expiries = %d after settling, want 0", got)
	}
}

// Scenario R4 — a lossy link neither departs nor parks a node of the shipped
// base: the base runs cmd/basestation's defaults (10s leases, reconcile
// every 30s, 16 shards, 8 renewal workers) and keeps 20 nodes for 120s of
// simulated time while the network loses 1 % or 5 % of all messages. A lost
// renewal is retried inside its lease, and only a renewal cycle that gets no
// answer at all parks a node, so every node stays adapted and holds its
// extension.
func TestScenarioLossyLinkShippedBaseKeepsNodes(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05} {
		t.Run(fmt.Sprintf("loss=%g", loss), func(t *testing.T) {
			w := newSimWorld(t)
			signer, err := sign.NewSigner("base-1")
			if err != nil {
				t.Fatal(err)
			}
			b := &scenarioBase{name: "base-1", reg: metrics.New(), signer: signer}
			b.base, err = core.NewBase(core.BaseConfig{
				Name:           "base-1",
				Addr:           "base-1",
				Caller:         w.net.Node("base-1"),
				Signer:         signer,
				Clock:          w.clk,
				ReconcileEvery: 30 * time.Second,
				Shards:         16,
				RenewBatch:     64,
				RenewWorkers:   8,
				CallTimeout:    time.Hour, // the simulated clock governs; simnet fails lost calls at once
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(b.base.Close)
			b.base.Instrument(b.reg)
			if err := b.base.AddExtension(noopScenarioExt("policy", 1)); err != nil {
				t.Fatal(err)
			}
			nodes := make([]*scenarioNode, 20)
			for i := range nodes {
				nodes[i] = w.newNode(fmt.Sprintf("robot%02d", i), signer)
				if err := b.base.AdaptNode(nodes[i].name, nodes[i].name); err != nil {
					t.Fatal(err)
				}
			}

			netReg := metrics.New()
			w.net.Instrument(netReg)
			w.net.SetDefault(simnet.LinkProfile{Loss: loss})
			w.advance(120*time.Second, 250*time.Millisecond)

			if got := netReg.CounterValue("simnet.losses"); got == 0 {
				t.Fatal("the network lost no message")
			}
			if got := b.counter("lease.renew_retries"); got == 0 {
				t.Error("no renewal was retried")
			}
			if got := b.counter("base.departures"); got != 0 {
				t.Errorf("base.departures = %d, want 0", got)
			}
			if got := b.counter("base.degrades"); got != 0 {
				t.Errorf("base.degrades = %d, want 0", got)
			}
			if got := len(b.base.Adapted()); got != len(nodes) {
				t.Errorf("%d adapted nodes, want %d", got, len(nodes))
			}
			for _, n := range nodes {
				if !n.receiver.Has("policy") {
					t.Errorf("%s lost its extension", n.name)
				}
			}
		})
	}
}
