package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/sign"
	"repro/internal/transport"
)

// parkingCaller is the storm fabric with every call of one method parked
// until a second one is in flight, recording the peak number in flight. A
// fan-out that calls one node at a time never has a second call in flight:
// its first call gives up after overlapWait, marks the change stalled and
// releases every later call, so the test fails fast instead of waiting out
// one timeout per node.
type parkingCaller struct {
	*stormCaller
	method string // the parked method

	mu       sync.Mutex
	inFlight int
	peak     int
	stalled  bool
	overlap  chan struct{} // closed once two applies were in flight together, or on a stall
	released bool
}

const overlapWait = 10 * time.Second

// reset starts a new policy change's bookkeeping.
func (c *parkingCaller) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inFlight, c.peak, c.stalled, c.released = 0, 0, false, false
	c.overlap = make(chan struct{})
}

// result reports the change's peak in-flight calls and whether one stalled.
func (c *parkingCaller) result() (peak int, stalled bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak, c.stalled
}

// releaseLocked opens the gate for every parked and later call.
func (c *parkingCaller) releaseLocked() {
	if !c.released {
		c.released = true
		close(c.overlap)
	}
}

func (c *parkingCaller) Call(ctx context.Context, to, method string, req, resp any) error {
	if method != c.method {
		return c.stormCaller.Call(ctx, to, method, req, resp)
	}
	c.mu.Lock()
	c.inFlight++
	c.peak = max(c.peak, c.inFlight)
	if c.inFlight >= 2 {
		c.releaseLocked()
	}
	gate := c.overlap
	c.mu.Unlock()
	select {
	case <-gate:
	case <-time.After(overlapWait):
		c.mu.Lock()
		c.stalled = true
		c.releaseLocked()
		c.mu.Unlock()
	}
	err := c.stormCaller.Call(ctx, to, method, req, resp)
	c.mu.Lock()
	c.inFlight--
	c.mu.Unlock()
	return err
}

// TestPolicyChangeFansOutConcurrently checks that adding, replacing and
// removing an extension on 100 adapted nodes overlaps the nodes' applies,
// never runs more than policyFanOut of them at once, and sends every node
// exactly one apply — with the nodes in one shard of the node table, and
// spread over eight.
func TestPolicyChangeFansOutConcurrently(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testPolicyChangeFansOut(t, shards)
		})
	}
}

func testPolicyChangeFansOut(t *testing.T, shards int) {
	const nodes = 100
	caller := &parkingCaller{stormCaller: newStormCaller(), method: MethodApplyBatch}
	caller.reset()
	b, addrs := newFanOutBase(t, caller, shards, nodes)
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"AddExtension", func() error { return b.AddExtension(noopExt("policy", 1)) }},
		{"ReplaceExtension", func() error { return b.ReplaceExtension(noopExt("policy", 2)) }},
		{"RemoveExtension", func() error { return b.RemoveExtension("policy") }},
	} {
		before := make([]int, nodes)
		for i, a := range addrs {
			before[i] = caller.nodeCount(a, MethodApplyBatch)
		}
		caller.reset()
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		peak, stalled := caller.result()
		if stalled {
			t.Errorf("%s: an apply waited %v for a second one in flight: the nodes were applied one at a time", step.name, overlapWait)
		}
		if peak < 2 || peak > policyFanOut {
			t.Errorf("%s: peak %d applies in flight, want 2..%d", step.name, peak, policyFanOut)
		}
		for i, a := range addrs {
			if got := caller.nodeCount(a, MethodApplyBatch) - before[i]; got != 1 {
				t.Errorf("%s: %s got %d applies, want 1", step.name, a, got)
			}
		}
	}
	if got := b.ScheduledRenewals(); got != 0 {
		t.Fatalf("%d renewals scheduled after the remove, want 0", got)
	}
}

// newFanOutBase adapts n nodes, under an empty policy set, to a base whose
// node table has the given number of shards.
func newFanOutBase(t *testing.T, caller transport.Caller, shards, n int) (*Base, []string) {
	t.Helper()
	b, _ := newStormBase(t, clock.NewManual(time.Unix(1000, 0)), caller, 0, 8, 1)
	b.nodes = newNodeTable(shards) // before any node is adapted
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("robot-%03d", i)
		// An empty policy set: adapting sends nothing.
		if err := b.AdaptNode(addrs[i], addrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b, addrs
}

// TestReconcileFansOutConcurrently checks that a reconcile round over 100
// adapted nodes overlaps the nodes' inventory calls, never runs more than
// policyFanOut of them at once, and asks every node exactly once — with the
// nodes in one shard of the node table, and spread over eight: how many
// nodes a round works on at once does not depend on the shards.
func TestReconcileFansOutConcurrently(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const nodes = 100
			caller := &parkingCaller{stormCaller: newStormCaller(), method: MethodInventory}
			caller.reset()
			b, addrs := newFanOutBase(t, caller, shards, nodes)
			res := b.ReconcileNow(context.Background())
			peak, stalled := caller.result()
			if stalled {
				t.Errorf("an inventory call waited %v for a second one in flight: the nodes were reconciled one at a time", overlapWait)
			}
			if peak < 2 || peak > policyFanOut {
				t.Errorf("peak %d inventory calls in flight, want 2..%d", peak, policyFanOut)
			}
			for _, a := range addrs {
				if got := caller.nodeCount(a, MethodInventory); got != 1 {
					t.Errorf("%s got %d inventory calls, want 1", a, got)
				}
				if r, ok := res[a]; !ok || r.Err != "" {
					t.Errorf("%s: round result %+v (present %v), want an error-free result", a, r, ok)
				}
			}
		})
	}
}

// TestRolloutRetainsNoPerVersionState rolls 3000 versions of one extension
// out to two receivers over the in-process fabric. The base keeps only the
// current version's signed form, and neither the base's nor a receiver's
// activity log grows past its capacity, while the counters still count every
// push.
func TestRolloutRetainsNoPerVersionState(t *testing.T) {
	const rollouts = 3000
	clk := clock.NewManual(time.Unix(1000, 0))
	fabric := transport.NewInProc()
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	b, reg := newRecoveryBase(t, fabric, clk, signer, "", 0)
	var recvs []*Receiver
	for _, name := range []string{"robot1", "robot2"} {
		r, _, stop := serveNamedReceiver(t, fabric, clk, signer, name)
		t.Cleanup(stop)
		recvs = append(recvs, r)
	}
	if err := b.AddExtension(recoveryExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	for _, r := range recvs {
		if err := b.AdaptNode(r.cfg.NodeName, r.cfg.Addr); err != nil {
			t.Fatal(err)
		}
	}
	pushes := reg.Counter("base.pushes").Value()
	last := rollouts + 1
	for v := 2; v <= last; v++ {
		if err := b.ReplaceExtension(recoveryExt("policy", v)); err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
	}
	if got := reg.Counter("base.pushes").Value() - pushes; got != 2*rollouts {
		t.Errorf("base.pushes rose by %d, want %d", got, 2*rollouts)
	}
	if errs := reg.Counter("base.push_errors").Value(); errs != 0 {
		t.Errorf("base.push_errors = %d, want 0", errs)
	}

	b.mu.Lock()
	set := append([]SignedExtension(nil), b.extensions...)
	b.mu.Unlock()
	trust := sign.NewTrustStore()
	trust.Trust(signer.Name, signer.PublicKey())
	if len(set) != 1 || set[0].Ext.Version != last {
		t.Fatalf("policy set = %d signed forms (first %+v), want policy@%d alone", len(set), set, last)
	}
	if err := set[0].Verify(trust); err != nil {
		t.Fatalf("policy set's signed form: %v", err)
	}

	acts := b.Activity()
	if len(acts) > activityLogCap {
		t.Errorf("base activity holds %d entries, capacity %d", len(acts), activityLogCap)
	}
	if a := acts[len(acts)-1]; a.Event != "push" || a.Ext != "policy" || a.Detail != "" {
		t.Errorf("base's newest activity = %+v, want the last push of policy", a)
	}
	for _, r := range recvs {
		acts := r.Activity()
		if len(acts) > activityLogCap {
			t.Errorf("%s activity holds %d entries, capacity %d", r.cfg.NodeName, len(acts), activityLogCap)
		}
		want := fmt.Sprintf("version %d,", last)
		if a := acts[len(acts)-1]; a.Event != "replace" || a.Ext != "policy" || !strings.HasPrefix(a.Detail, want) {
			t.Errorf("%s newest activity = %+v, want the replace to policy@%d", r.cfg.NodeName, a, last)
		}
		if got := r.Installed(); len(got) != 1 || got[0].Version != last {
			t.Errorf("%s holds %+v, want policy@%d", r.cfg.NodeName, got, last)
		}
	}
}

// TestPolicyChangeRejectedLeavesSetAndNodesUnchanged replaces an extension
// with versions the base must refuse — one that fails validation, one whose
// bytecode uses a capability it does not declare, one that is not newer —
// and checks each leaves the policy set, its admission report and the node
// exactly as they were, with nothing sent.
func TestPolicyChangeRejectedLeavesSetAndNodesUnchanged(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	fabric := transport.NewInProc()
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	b, reg := newRecoveryBase(t, fabric, clk, signer, "", 0)
	recv, _, stop := serveReceiver(t, fabric, clk, signer)
	defer stop()
	if err := b.AddExtension(recoveryExt("policy", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	if err := b.ReplaceExtension(recoveryExt("policy", 2)); err != nil {
		t.Fatal(err)
	}

	invalid := recoveryExt("policy", 3)
	invalid.Advices = nil
	undeclared := codeExt("policy", nil, `
class Ext
  method void advice()
    hostcall net.post 0
    pop
  end
end`)
	undeclared.Version = 3
	stale := codeExt("policy", []string{"clock", "store"}, auditSource)
	stale.Version = 2

	for _, tc := range []struct {
		name string
		ext  Extension
	}{{"invalid", invalid}, {"undeclared capability", undeclared}, {"not newer", stale}} {
		b.mu.Lock()
		set := append([]SignedExtension(nil), b.extensions...)
		b.mu.Unlock()
		rep, _ := b.AnalysisFor("policy")
		held := recv.Installed()
		applies := reg.Counter("base.push_batch").Value()

		if err := b.ReplaceExtension(tc.ext); err == nil {
			t.Fatalf("%s: replace accepted", tc.name)
		}
		b.mu.Lock()
		after := append([]SignedExtension(nil), b.extensions...)
		b.mu.Unlock()
		if !reflect.DeepEqual(after, set) {
			t.Errorf("%s: policy set changed to %+v", tc.name, after)
		}
		if got, _ := b.AnalysisFor("policy"); !reflect.DeepEqual(got, rep) {
			t.Errorf("%s: admission report changed to %+v, want %+v", tc.name, got, rep)
		}
		if got := recv.Installed(); !reflect.DeepEqual(got, held) {
			t.Errorf("%s: node holds %+v, want %+v", tc.name, got, held)
		}
		if got := reg.Counter("base.push_batch").Value(); got != applies {
			t.Errorf("%s: %d applies sent, want none", tc.name, got-applies)
		}
	}
}
