// Integration test for the observability layer: one instrumented platform
// run through install → lease renewal under deterministic transport loss →
// expiry revocation, asserting the counter values at each stage.
package repro

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/metrics"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/transport"
)

// waitForCounter polls reg until the named counter reaches at least want.
func waitForCounter(t *testing.T, reg *metrics.Registry, name string, want uint64) {
	t.Helper()
	testutil.WaitForCounter(t, reg, name, want)
}

func TestMetricsLeaseLifecycle(t *testing.T) {
	fabric := transport.NewInProc()
	reg := metrics.New()
	fabric.Instrument(reg)

	signer, err := sign.NewSigner("base-1")
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.NewBase(core.BaseConfig{
		Name:          "base-1",
		Addr:          "base-1",
		Caller:        fabric.Node("base-1"),
		Signer:        signer,
		Store:         store.NewMemory(),
		LeaseDur:      100 * time.Millisecond,
		RenewFraction: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(base.Close)
	base.Instrument(reg)
	baseMux := transport.NewMux()
	base.ServeOn(baseMux)
	stopBase, err := fabric.Serve("base-1", baseMux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopBase)

	node := newPlotterNode(t, fabric, "plotter-A", signer)
	node.weaver.Instrument(reg)
	node.receiver.Instrument(reg)
	node.receiver.Grantor().Start(10 * time.Millisecond)
	t.Cleanup(node.receiver.Grantor().Stop)

	if err := base.AddExtension(core.Extension{
		ID:      "hall/logger",
		Name:    "logger",
		Version: 1,
		Advices: []core.AdviceSpec{{
			Name: "log", Kind: core.KindCallBefore, Pattern: "*.*(..)",
			Builtin: ext.BLogger,
		}},
		Caps: []string{"log"},
	}); err != nil {
		t.Fatal(err)
	}

	// Stage 1: adaptation. The push installs and leases one extension.
	if err := base.AdaptNode("plotter-A", "plotter-A"); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"base.adapts":   1,
		"base.pushes":   1,
		"ext.installs":  1,
		"lease.grants":  1,
		"weave.inserts": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("after adapt: %s = %d, want %d", name, got, want)
		}
	}
	if snap.Counters["transport.calls"] == 0 {
		t.Error("after adapt: no transport calls counted")
	}
	if got := snap.Gauges["ext.installed"]; got != 1 {
		t.Errorf("after adapt: ext.installed = %d, want 1", got)
	}

	// Stage 2: renewal under deterministic loss. Dropping every second call
	// forces in-lease retries, and the retry on the next tick lands, so the
	// lease survives and the extension stays installed.
	var calls atomic.Uint64
	fabric.SetLinkFunc(func(from, to string) bool { return calls.Add(1)%2 != 0 })
	waitForCounter(t, reg, "lease.renewals", 3)
	waitForCounter(t, reg, "lease.renew_retries", 1)
	snap = reg.Snapshot()
	if got := snap.Counters["lease.renew_failures"]; got != 0 {
		t.Errorf("under loss: renew_failures = %d, want 0 (retries should absorb 1/2 loss)", got)
	}
	if !node.receiver.Has("logger") {
		t.Fatal("under loss: extension lapsed despite retries")
	}

	// Stage 3: total loss. Renewals fail terminally, the base notices the
	// departure, and the receiver autonomously expires and withdraws the
	// extension.
	fabric.SetLinkFunc(func(from, to string) bool { return false })
	waitForCounter(t, reg, "lease.renew_failures", 1)
	waitForCounter(t, reg, "base.departures", 1)
	waitForCounter(t, reg, "ext.expiries", 1)
	waitForCounter(t, reg, "lease.expiries", 1)
	waitForCounter(t, reg, "weave.withdraws", 1)
	if node.receiver.Has("logger") {
		t.Error("after expiry: extension still installed")
	}
	snap = reg.Snapshot()
	if got := snap.Gauges["ext.installed"]; got != 0 {
		t.Errorf("after expiry: ext.installed = %d, want 0", got)
	}
	if got := snap.Gauges["lease.active"]; got != 0 {
		t.Errorf("after expiry: lease.active = %d, want 0", got)
	}
	if got := snap.Counters["ext.withdrawals"]; got != 0 {
		t.Errorf("after expiry: ext.withdrawals = %d, want 0 (expiry is not a withdrawal)", got)
	}
}
