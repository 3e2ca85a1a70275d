package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/lvm"
	"repro/internal/metrics"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/weave"
)

// newJournaledReceiver builds a receiver whose state is journalled under dir,
// trusting signer. Each call builds a fresh weaver/receiver, modelling a node
// process restart over the same state directory.
func newJournaledReceiver(t testing.TB, dir string, clk clock.Clock, signer *sign.Signer) (*Receiver, *ReceiverJournal) {
	t.Helper()
	j, err := OpenReceiverJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	trust := sign.NewTrustStore()
	trust.Trust(signer.Name, signer.PublicKey())
	builtins := NewBuiltins()
	builtins.Register("noop", func(*Env, map[string]string) (aop.Body, error) {
		return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
	})
	r, err := NewReceiver(ReceiverConfig{
		NodeName: "robot1",
		Addr:     "robot1",
		Weaver:   weave.New(),
		Trust:    trust,
		Policy:   sandbox.AllowAll(),
		Clock:    clk,
		Host:     lvm.HostMap{},
		Builtins: builtins,
		Journal:  j,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, j
}

func recoveryExt(name string, version int) Extension {
	return Extension{
		ID:      "ext/" + name,
		Name:    name,
		Version: version,
		Advices: []AdviceSpec{{
			Name:    "a",
			Kind:    KindCallBefore,
			Pattern: "Motor.*(..)",
			Builtin: "noop",
		}},
	}
}

// TestReceiverRecoverPreservesLease: a node restarting within the lease
// window re-weaves the extension under the original lease ID and absolute
// deadline — no fresh grant, no deadline extension.
func TestReceiverRecoverPreservesLease(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewManual(time.Unix(1000, 0))
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}

	r1, j1 := newJournaledReceiver(t, dir, clk, signer)
	signed, err := Sign(signer, recoveryExt("policy", 1))
	if err != nil {
		t.Fatal(err)
	}
	id, err := r1.Install(signed, "base-1", 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	wantDeadline, ok := r1.Grantor().Deadline(id)
	if !ok {
		t.Fatal("no deadline for granted lease")
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash + restart 30s later: well inside the 2 min window.
	clk.Advance(30 * time.Second)
	r2, _ := newJournaledReceiver(t, dir, clk, signer)
	restored, err := r2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored = %d, want 1", restored)
	}
	if !r2.Has("policy") {
		t.Fatal("extension not re-woven")
	}
	inv := r2.Inventory()
	if len(inv) != 1 || inv[0].LeaseID != string(id) {
		t.Fatalf("inventory = %+v, want original lease %s", inv, id)
	}
	gotDeadline, ok := r2.Grantor().Deadline(id)
	if !ok || !gotDeadline.Equal(wantDeadline) {
		t.Fatalf("deadline = %v (%v), want original %v", gotDeadline, ok, wantDeadline)
	}
	// The restored lease renews normally under its original handle.
	if err := r2.Renew(id, time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestReceiverRecoverExpiresLapsedLease: a crash longer than the lease window
// restores the extension already expired — Recover withdraws it immediately
// instead of silently re-opening the lease, so the installed set converges to
// what an uninterrupted node would hold.
func TestReceiverRecoverExpiresLapsedLease(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewManual(time.Unix(1000, 0))
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}

	r1, j1 := newJournaledReceiver(t, dir, clk, signer)
	signed, err := Sign(signer, recoveryExt("policy", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Install(signed, "base-1", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Down for five minutes: the 10s lease lapsed long ago.
	clk.Advance(5 * time.Minute)
	r2, j2 := newJournaledReceiver(t, dir, clk, signer)
	restored, err := r2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored = %d, want 1", restored)
	}
	if r2.Has("policy") {
		t.Fatal("lapsed lease survived recovery")
	}
	// The expiry also cleaned the journal: a second restart recovers nothing.
	recs, err := j2.Exts()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("journal still holds %d records after expiry", len(recs))
	}
}

// newRecoveryBase builds a base over fabric whose state is journalled under
// dir (empty string disables journalling).
func newRecoveryBase(t testing.TB, fabric *transport.InProc, clk clock.Clock, signer *sign.Signer, dir string, breaker *transport.BreakerSet) (*Base, *metrics.Registry) {
	t.Helper()
	var j *BaseJournal
	if dir != "" {
		var err error
		j, err = OpenBaseJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
	}
	b, err := NewBase(BaseConfig{
		Name:          "hall-1",
		Addr:          "base-1",
		Caller:        fabric.Node("base-1"),
		Signer:        signer,
		Clock:         clk,
		LeaseDur:      time.Minute,
		RenewFraction: 0.5,
		CallTimeout:   500 * time.Millisecond,
		Journal:       j,
		Breaker:       breaker,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	reg := metrics.New()
	b.Instrument(reg)
	return b, reg
}

// serveReceiver wires a journal-less receiver onto the fabric and returns it
// with its stop function.
func serveReceiver(t testing.TB, fabric *transport.InProc, clk clock.Clock, signer *sign.Signer) (*Receiver, *metrics.Registry, func()) {
	t.Helper()
	trust := sign.NewTrustStore()
	trust.Trust(signer.Name, signer.PublicKey())
	builtins := NewBuiltins()
	builtins.Register("noop", func(*Env, map[string]string) (aop.Body, error) {
		return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
	})
	r, err := NewReceiver(ReceiverConfig{
		NodeName: "robot1",
		Addr:     "robot1",
		Weaver:   weave.New(),
		Trust:    trust,
		Policy:   sandbox.AllowAll(),
		Clock:    clk,
		Host:     lvm.HostMap{},
		Builtins: builtins,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	r.Instrument(reg)
	mux := transport.NewMux()
	r.ServeOn(mux)
	stop, err := fabric.Serve("robot1", mux)
	if err != nil {
		t.Fatal(err)
	}
	return r, reg, stop
}

// TestBaseRecoverResumesRenewals: a restarted base replays its journal and
// keeps the node's existing lease alive — renewals continue under the
// original lease ID with no re-push.
func TestBaseRecoverResumesRenewals(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewManual(time.Unix(1000, 0))
	fabric := transport.NewInProc()
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	recv, recvReg, stop := serveReceiver(t, fabric, clk, signer)
	defer stop()

	b1, _ := newRecoveryBase(t, fabric, clk, signer, dir, nil)
	if err := b1.AddExtension(recoveryExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b1.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	if !recv.Has("policy") {
		t.Fatal("extension not installed")
	}
	origInv := recv.Inventory()
	b1.Close() // graceful shutdown keeps the journal

	// Restart: a fresh base over the same state directory.
	clk.Advance(10 * time.Second)
	b2, _ := newRecoveryBase(t, fabric, clk, signer, dir, nil)
	if err := b2.AddExtension(recoveryExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	restored, err := b2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored = %d, want 1", restored)
	}
	if got := b2.Adapted(); len(got) != 1 || got[0] != "robot1" {
		t.Fatalf("adapted after recovery = %v", got)
	}

	// Drive past the original deadline: the resumed renewer must have kept
	// the lease alive (the receiver counts renewals, not installs).
	simnet.Advance(clk, 2*time.Minute, 5*time.Second)
	if !recv.Has("policy") {
		t.Fatal("lease lapsed after base recovery")
	}
	if got := recvReg.Snapshot().Counters["ext.installs"]; got != 1 {
		t.Fatalf("ext.installs = %d, want 1 (recovery must not re-push)", got)
	}
	if got := recvReg.Snapshot().Counters["lease.renewals"]; got == 0 {
		t.Fatal("no renewals after recovery")
	}
	nowInv := recv.Inventory()
	if len(nowInv) != 1 || nowInv[0].LeaseID != origInv[0].LeaseID {
		t.Fatalf("lease changed across base recovery: %+v -> %+v", origInv, nowInv)
	}
}

// TestReconcileRepairsDrift: one anti-entropy round re-pushes a missing
// extension and revokes an orphan that survived a missed revoke, then the
// next round reports in-sync.
func TestReconcileRepairsDrift(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	fabric := transport.NewInProc()
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	recv, _, stop := serveReceiver(t, fabric, clk, signer)
	defer stop()

	b, reg := newRecoveryBase(t, fabric, clk, signer, "", nil)
	if err := b.AddExtension(recoveryExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}

	// Drift: the node lost "policy" (e.g. local wipe) and still holds
	// "stale", whose revoke the partition swallowed.
	staleSigned, err := Sign(signer, recoveryExt("stale", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Install(staleSigned, "base-1", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := recv.Withdraw(context.Background(), "policy"); err != nil {
		t.Fatal(err)
	}

	res := b.ReconcileNow(context.Background())
	r := res["robot1"]
	if len(r.Repushed) != 1 || r.Repushed[0] != "policy" {
		t.Fatalf("repushed = %v, want [policy]", r.Repushed)
	}
	if len(r.Revoked) != 1 || r.Revoked[0] != "stale" {
		t.Fatalf("revoked = %v, want [stale]", r.Revoked)
	}
	if !recv.Has("policy") || recv.Has("stale") {
		t.Fatalf("post-reconcile state: policy=%v stale=%v", recv.Has("policy"), recv.Has("stale"))
	}
	snap := reg.Snapshot().Counters
	if snap["base.reconcile_repushes"] != 1 || snap["base.reconcile_orphans"] != 1 {
		t.Fatalf("drift counters = %d/%d, want 1/1",
			snap["base.reconcile_repushes"], snap["base.reconcile_orphans"])
	}

	// Second round: nothing left to repair.
	res = b.ReconcileNow(context.Background())
	if r := res["robot1"]; !r.InSync {
		t.Fatalf("second round not in sync: %+v", r)
	}
	st := b.Status()
	if len(st.Nodes) != 1 || st.Nodes[0].State != "adapted" || !st.Nodes[0].LastReconcile.InSync {
		t.Fatalf("status = %+v", st.Nodes)
	}
	if st.Drift.Repushes != 1 || st.Drift.Orphans != 1 || st.Drift.Rounds != 2 {
		t.Fatalf("drift = %+v", st.Drift)
	}
}

// TestDegradedNodeReconciledNotRepushed: when renewals fail with the node's
// circuit open, the base parks the node as degraded; while degraded,
// reconcile attempts fast-fail locally (no re-push storm), and when the node
// answers again its live lease is adopted — not re-pushed.
func TestDegradedNodeReconciledNotRepushed(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	fabric := transport.NewInProc()
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	recv, recvReg, stop := serveReceiver(t, fabric, clk, signer)

	breaker := transport.NewBreakerSet(1, transport.BreakerConfig{
		Threshold: 1,
		Cooldown:  5 * time.Second,
		Jitter:    0,
		Clock:     clk,
	})
	b, reg := newRecoveryBase(t, fabric, clk, signer, "", breaker)
	if err := b.AddExtension(recoveryExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}

	// Let the renewer register its wake-up, then drop the node off the
	// network: the renewal at t=30s fails, trips the breaker (threshold 1)
	// and the base degrades the node.
	waitUntil(t, "renewer schedule", func() bool { return clk.PendingTimers() >= 1 })
	stop()
	simnet.Advance(clk, 30*time.Second, 5*time.Second)
	waitUntil(t, "degradation", func() bool { return len(b.Degraded()) == 1 })
	if got := b.Adapted(); len(got) != 0 {
		t.Fatalf("adapted = %v, want none while degraded", got)
	}
	if got := reg.Snapshot().Counters["base.departures"]; got != 0 {
		t.Fatalf("degradation also counted as departure (%d)", got)
	}

	// While the circuit is open, a reconcile round fast-fails locally: the
	// breaker answers, not the network.
	installsBefore := recvReg.Snapshot().Counters["ext.installs"]
	res := b.ReconcileNow(context.Background())
	if r := res["robot1"]; r.Err == "" {
		t.Fatalf("reconcile against open circuit succeeded: %+v", r)
	}
	if got := reg.Snapshot().Counters["transport.breaker_fastfails"]; got == 0 {
		t.Fatal("reconcile reached the network instead of fast-failing")
	}

	// The node comes back; after the cooldown the reconcile probe lands,
	// promotes the node and adopts its still-live lease (LeaseDur is 1 min,
	// only ~36s passed) instead of re-pushing.
	mux := transport.NewMux()
	recv.ServeOn(mux)
	stop2, err := fabric.Serve("robot1", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	clk.Advance(6 * time.Second)
	res = b.ReconcileNow(context.Background())
	r := res["robot1"]
	if !r.Promoted {
		t.Fatalf("node not promoted: %+v", r)
	}
	if len(r.Adopted) != 1 || r.Adopted[0] != "policy" {
		t.Fatalf("adopted = %v, want [policy]", r.Adopted)
	}
	if len(r.Repushed) != 0 {
		t.Fatalf("repushed = %v, want none (lease was live)", r.Repushed)
	}
	if got := recvReg.Snapshot().Counters["ext.installs"]; got != installsBefore {
		t.Fatalf("ext.installs moved %d -> %d: reconciliation re-pushed", installsBefore, got)
	}
	if got := b.Adapted(); len(got) != 1 {
		t.Fatalf("adapted = %v after promotion", got)
	}
	if got := b.Degraded(); len(got) != 0 {
		t.Fatalf("degraded = %v after promotion", got)
	}
	// And the adopted lease is kept alive from here on.
	simnet.Advance(clk, 2*time.Minute, 5*time.Second)
	if !recv.Has("policy") {
		t.Fatal("adopted lease lapsed")
	}
}

// TestReceiverRecoverSkipsUntrustedRecord: a journalled extension that no
// longer verifies (the base rotated its signing key across a restart, so the
// trust store only holds the new key) is rejected and dropped — never fatal.
// The node comes up empty and reconciliation re-pushes current extensions.
func TestReceiverRecoverSkipsUntrustedRecord(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewManual(time.Unix(1000, 0))
	oldSigner, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}

	r1, j1 := newJournaledReceiver(t, dir, clk, oldSigner)
	signed, err := Sign(oldSigner, recoveryExt("policy", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Install(signed, "base-1", time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// The base restarted and minted a fresh key under the same name: the
	// node's trust store now holds only the new key.
	newSigner, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	r2, j2 := newJournaledReceiver(t, dir, clk, newSigner)
	restored, err := r2.Recover()
	if err != nil {
		t.Fatalf("per-record verification failure must not be fatal: %v", err)
	}
	if restored != 0 {
		t.Fatalf("restored = %d, want 0", restored)
	}
	if got := r2.Installed(); len(got) != 0 {
		t.Fatalf("installed after recover = %+v, want none", got)
	}
	recs, err := j2.Exts()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("journal still holds %d record(s); rejected records must be dropped", len(recs))
	}
}
