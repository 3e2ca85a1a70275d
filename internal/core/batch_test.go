package core

import (
	"context"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/sign"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// stormCaller is a fake fleet node fabric for renewal-storm tests: it answers
// the batch surface directly (no receiver needed), counts calls per method,
// and can mark nodes crashed (every call to them fails).
type stormCaller struct {
	mu          sync.Mutex
	calls       map[string]int  // method -> count
	perNode     map[string]int  // node|method -> count
	crashed     map[string]bool // node -> every call fails
	leaseSeq    int
	obsPerBatch bool // answer WantObs batches with a synthetic report
	wantObs     int  // renewBatch requests that asked for obs
}

func newStormCaller() *stormCaller {
	return &stormCaller{
		calls:   make(map[string]int),
		perNode: make(map[string]int),
		crashed: make(map[string]bool),
	}
}

func (c *stormCaller) count(method string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[method]
}

// snapshot copies the per-method call counts.
func (c *stormCaller) snapshot() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.calls))
	for m, n := range c.calls {
		out[m] = n
	}
	return out
}

func (c *stormCaller) nodeCount(node, method string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.perNode[node+"|"+method]
}

func (c *stormCaller) wantObsSeen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wantObs
}

func (c *stormCaller) crash(node string) { c.mu.Lock(); c.crashed[node] = true; c.mu.Unlock() }

func (c *stormCaller) Call(_ context.Context, to, method string, req, resp any) error {
	c.mu.Lock()
	c.calls[method]++
	c.perNode[to+"|"+method]++
	crashed := c.crashed[to]
	c.leaseSeq++
	seq := c.leaseSeq
	c.mu.Unlock()

	if crashed {
		return fmt.Errorf("dial %s: %w", to, transport.ErrUnreachable)
	}
	minute := time.Minute.Milliseconds()
	switch method {
	case MethodApplyBatch:
		out := ApplyBatchResp{}
		r := req.(ApplyBatchReq)
		for i := range r.Installs {
			out.Installs = append(out.Installs, InstallItemResp{LeaseID: fmt.Sprintf("L%d-%d", seq, i)})
		}
		for range r.Revokes {
			out.Revokes = append(out.Revokes, RevokeItemResp{})
		}
		*(resp.(*ApplyBatchResp)) = out
	case MethodRenewE:
		*(resp.(*RenewExtResp)) = RenewExtResp{DurMillis: minute}
	case MethodRenewBatch:
		r := *req.(*RenewBatchReq) // the base passes its pooled request
		out := RenewBatchResp{}
		for range r.Items {
			out.Items = append(out.Items, RenewItemResp{DurMillis: minute})
		}
		if r.WantObs {
			c.mu.Lock()
			c.wantObs++
			obs := c.obsPerBatch
			c.mu.Unlock()
			if obs {
				// A synthetic per-report delta: every batch "served" its items,
				// odd sequence numbers saw one error, and one span was dropped.
				out.Obs = &ObsReport{
					Methods: []ObsMethodDelta{{
						Method: MethodRenewBatch,
						Count:  uint64(len(r.Items)),
						Errors: uint64(seq % 2),
						SumNs:  int64(len(r.Items)) * 1_000,
					}},
					SpansDropped: 1,
				}
			}
		}
		*(resp.(*RenewBatchResp)) = out
	}
	return nil
}

func newStormBase(t *testing.T, clk clock.Clock, caller transport.Caller, reconcileEvery time.Duration, batch, workers int) (*Base, *metrics.Registry) {
	t.Helper()
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBase(BaseConfig{
		Name:           "hall-1",
		Addr:           "base-1",
		Caller:         caller,
		Signer:         signer,
		Clock:          clk,
		LeaseDur:       time.Minute,
		RenewFraction:  0.5,
		RenewBatch:     batch,
		RenewWorkers:   workers,
		CallTimeout:    time.Hour,
		ReconcileEvery: reconcileEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	reg := metrics.New()
	b.Instrument(reg)
	return b, reg
}

// drainRenewals advances the manual clock in tick-sized steps across dur and
// waits for the renewal scheduler to quiesce after each step, so every due
// renewal (and its retries) runs to completion deterministically.
func drainRenewals(t *testing.T, clk *clock.Manual, b *Base, dur, step time.Duration) {
	t.Helper()
	for elapsed := time.Duration(0); elapsed < dur; elapsed += step {
		clk.Advance(step)
		waitUntil(t, "renewals quiesced", b.RenewalsQuiesced)
	}
}

// TestRenewalStormCoalesces pins the batching contract: N leases granted to
// one node in the same tick come due together and must ride ceil(N/batch)
// midas.renewBatch RPCs — not N singleton calls.
func TestRenewalStormCoalesces(t *testing.T) {
	const nExts, batch = 24, 8
	clk := clock.NewManual(time.Unix(1000, 0))
	caller := newStormCaller()
	b, reg := newStormBase(t, clk, caller, 0, batch, 1)

	for i := 0; i < nExts; i++ {
		if err := b.AddExtension(noopExt(fmt.Sprintf("ext-%02d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	if got := b.ScheduledRenewals(); got != nExts {
		t.Fatalf("scheduled renewals = %d, want %d", got, nExts)
	}
	// The whole policy set rode one batched apply.
	if got := reg.Snapshot().Counters["base.push_batch"]; got != 1 {
		t.Fatalf("base.push_batch = %d, want 1", got)
	}

	// All leases were granted at the same instant: every renewal comes due at
	// t+30s, in the same wheel advance.
	drainRenewals(t, clk, b, 30*time.Second, 30*time.Second)

	snap := reg.Snapshot()
	wantBatches := uint64((nExts + batch - 1) / batch)
	if got := snap.Counters["base.renew_batch"]; got != wantBatches {
		t.Fatalf("base.renew_batch = %d, want %d (N=%d, batch=%d)", got, wantBatches, nExts, batch)
	}
	if got := snap.Counters["base.renew_batch_leases"]; got != nExts {
		t.Fatalf("base.renew_batch_leases = %d, want %d", got, nExts)
	}
	if got := caller.count(MethodRenewBatch); got != int(wantBatches) {
		t.Fatalf("midas.renewBatch RPCs = %d, want %d", got, wantBatches)
	}
	if got := caller.count(MethodRenewE); got != 0 {
		t.Fatalf("singleton midas.renew RPCs = %d, want 0 during a batched storm", got)
	}
}

// TestPolicyChangesRideOneApply pins the base's one way to change a node:
// adding, replacing and removing an extension each send an adapted node
// exactly one midas.applyBatch, and no other call.
func TestPolicyChangesRideOneApply(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	caller := newStormCaller()
	b, _ := newStormBase(t, clk, caller, 0, 8, 1)
	if err := b.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"AddExtension", func() error { return b.AddExtension(noopExt("policy", 1)) }},
		{"ReplaceExtension", func() error { return b.ReplaceExtension(noopExt("policy", 2)) }},
		{"RemoveExtension", func() error { return b.RemoveExtension("policy") }},
	} {
		before := caller.snapshot()
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		sent := caller.snapshot()
		for m, n := range before {
			sent[m] -= n
			if sent[m] == 0 {
				delete(sent, m)
			}
		}
		if len(sent) != 1 || sent[MethodApplyBatch] != 1 {
			t.Errorf("%s sent %v, want exactly one %s", step.name, sent, MethodApplyBatch)
		}
	}
	if got := b.ScheduledRenewals(); got != 0 {
		t.Fatalf("%d renewals scheduled after the remove, want 0", got)
	}
}

// TestRenewalStormCrashParksNodeWithoutStallingOthers crashes one node in a
// two-node storm: its batch and every in-lease retry fail unanswered, and the
// base, which runs a reconciler, parks it degraded at the end of the cycle —
// while the healthy node's renewals in the same ticks all land.
func TestRenewalStormCrashParksNodeWithoutStallingOthers(t *testing.T) {
	const nExts = 6
	clk := clock.NewManual(time.Unix(1000, 0))
	caller := newStormCaller()
	b, reg := newStormBase(t, clk, caller, time.Hour, 8, 2)

	for i := 0; i < nExts; i++ {
		if err := b.AddExtension(noopExt(fmt.Sprintf("ext-%02d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, node := range []string{"robot-a", "robot-b"} {
		if err := b.AdaptNode(node, node); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.ScheduledRenewals(); got != 2*nExts {
		t.Fatalf("scheduled renewals = %d, want %d", got, 2*nExts)
	}

	// robot-a dies mid-flight; its renewal batch at t+30s and the retries
	// up to the lease's end fail, so the node parks degraded.
	caller.crash("robot-a")
	drainRenewals(t, clk, b, 60*time.Second, 10*time.Second)
	waitUntil(t, "robot-a degraded", func() bool {
		d := b.Degraded()
		return len(d) == 1 && d[0] == "robot-a"
	})

	if got := b.Adapted(); len(got) != 1 || got[0] != "robot-b" {
		t.Fatalf("adapted = %v, want [robot-b]", got)
	}
	// The healthy node's renewals were not stalled by the crashed batch.
	if got := caller.nodeCount("robot-b", MethodRenewBatch); got < 1 {
		t.Fatalf("robot-b renew batches = %d, want >= 1", got)
	}
	// robot-a's schedule is gone; robot-b's leases are still being kept alive.
	if got := b.ScheduledRenewals(); got != nExts {
		t.Fatalf("scheduled renewals after crash = %d, want %d (robot-b only)", got, nExts)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["base.degrades"]; got != 1 {
		t.Fatalf("base.degrades = %d, want 1", got)
	}
	if got := snap.Counters["base.departures"]; got != 0 {
		t.Fatalf("base.departures = %d, want 0 (parked, not departed)", got)
	}
	// And the wheel keeps running: the next window renews robot-b again.
	before := caller.nodeCount("robot-b", MethodRenewBatch)
	drainRenewals(t, clk, b, 30*time.Second, 10*time.Second)
	if got := caller.nodeCount("robot-b", MethodRenewBatch); got <= before {
		t.Fatalf("robot-b renew batches stuck at %d after another window", got)
	}
}

// failRenewals answers the storm surface, but fails every renewal with err.
type failRenewals struct {
	*stormCaller
	err error
}

func (c failRenewals) Call(ctx context.Context, to, method string, req, resp any) error {
	if method == MethodRenewE || method == MethodRenewBatch {
		return c.err
	}
	return c.stormCaller.Call(ctx, to, method, req, resp)
}

// TestFailedRenewalCycleParksOrDeparts decides a node's fate by the final
// error of its failed renewal cycle. A cycle that got no answer (no route, a
// passed deadline, a network timeout) parks the node degraded when the base
// runs a reconciler, and departs it when nothing would ever reconcile it, as
// for a basestation started with -reconcile 0. A node that answered — it no
// longer holds the lease, it shed the renewal or it refused it — departs
// either way. The degrade or depart activity entry carries the error.
func TestFailedRenewalCycleParksOrDeparts(t *testing.T) {
	cases := []struct {
		name string
		err  error
		park bool // with a reconciler
	}{
		{"unreachable", fmt.Errorf("dial robot-a: %w", transport.ErrUnreachable), true},
		{"deadline", fmt.Errorf("transport: call robot-a %s: %w", MethodRenewE, context.DeadlineExceeded), true},
		{"net-timeout", &net.OpError{Op: "read", Net: "tcp", Err: os.ErrDeadlineExceeded}, true},
		{"unknown-lease", transport.NewRemoteError(MethodRenewE, lease.ErrUnknownLease.Error()), false},
		{"overloaded", transport.NewRemoteError(MethodRenewE, transport.Overloaded(250*time.Millisecond).Error()), false},
		{"remote-error", transport.NewRemoteError(MethodRenewE, "receiver: refused"), false},
	}
	for _, tc := range cases {
		for _, reconcile := range []time.Duration{time.Hour, 0} {
			t.Run(fmt.Sprintf("%s/reconcile=%v", tc.name, reconcile), func(t *testing.T) {
				clk := clock.NewManual(time.Unix(1000, 0))
				b, reg := newStormBase(t, clk, failRenewals{newStormCaller(), tc.err}, reconcile, 8, 1)
				departed := make(chan string, 1)
				b.OnDepart(func(node string) { departed <- node })
				if err := b.AddExtension(noopExt("policy", 1)); err != nil {
					t.Fatal(err)
				}
				if err := b.AdaptNode("robot-a", "robot-a"); err != nil {
					t.Fatal(err)
				}
				// The renewal at 30s and its retries fail; the cycle ends
				// before the lease does, at 60s.
				drainRenewals(t, clk, b, time.Minute, 10*time.Second)

				park := tc.park && reconcile > 0
				event, counter := "depart", "base.departures"
				if park {
					event, counter = "degrade", "base.degrades"
				}
				var entry BaseActivity
				waitUntil(t, event+" logged", func() bool {
					for _, a := range b.Activity() {
						if a.Event == event {
							entry = a
							return true
						}
					}
					return false
				})
				if entry.Node != "robot-a" || !strings.Contains(entry.Detail, tc.err.Error()) {
					t.Errorf("%s entry = %+v, want robot-a with the cycle's error %q", event, entry, tc.err)
				}
				if got := reg.CounterValue(counter); got != 1 {
					t.Errorf("%s = %d, want 1", counter, got)
				}
				if got := b.Adapted(); len(got) != 0 {
					t.Errorf("adapted = %v, want none", got)
				}
				if park {
					if got := b.Degraded(); len(got) != 1 || got[0] != "robot-a" {
						t.Errorf("degraded = %v, want [robot-a]", got)
					}
					select {
					case node := <-departed:
						t.Errorf("OnDepart(%s) for a parked node", node)
					default:
					}
					return
				}
				if got := b.Degraded(); len(got) != 0 {
					t.Errorf("degraded = %v, want none", got)
				}
				select {
				case <-departed:
				case <-time.After(5 * time.Second): //lint:allow clockcheck (real-time bound on an async callback)
					t.Error("OnDepart never ran")
				}
			})
		}
	}
}

// TestRenewalJournalsOncePerCall checks that a renewal window checkpoints
// each node once per renew call, not once per lease, and that the journalled
// deadlines are exactly the ones per-lease journalling would have written:
// each renewed lease's new deadline, now + granted.
func TestRenewalJournalsOncePerCall(t *testing.T) {
	const nExts, batch = 24, 8
	clk := clock.NewManual(time.Unix(1000, 0))
	caller := newStormCaller()
	journal, err := OpenBaseJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBase(BaseConfig{
		Name: "hall-1", Addr: "base-1", Caller: caller, Signer: signer, Clock: clk,
		Journal: journal, LeaseDur: time.Minute, RenewFraction: 0.5,
		RenewBatch: batch, CallTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	for i := 0; i < nExts; i++ {
		if err := b.AddExtension(noopExt(fmt.Sprintf("ext-%02d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}

	key := nodeKeyPrefix + "robot1"
	for window := 1; window <= 2; window++ {
		writes, calls := journal.kv.Version(key), caller.count(MethodRenewBatch)
		drainRenewals(t, clk, b, 30*time.Second, 30*time.Second)
		calls = caller.count(MethodRenewBatch) - calls
		if want := (nExts + batch - 1) / batch; calls != want {
			t.Fatalf("window %d: %d renew calls, want %d", window, calls, want)
		}
		if got := journal.kv.Version(key) - writes; got != int64(calls) {
			t.Fatalf("window %d: %d journal writes for %d renew calls of %d leases, want one per call",
				window, got, calls, nExts)
		}
		rec, _, err := journal.Get("robot1")
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Exts) != nExts {
			t.Fatalf("window %d: journal holds %d grants, want %d", window, len(rec.Exts), nExts)
		}
		want := clk.Now().Add(time.Minute).UnixMilli()
		for name, g := range rec.Exts {
			if g.DeadlineMillis != want || g.DurMillis != time.Minute.Milliseconds() {
				t.Fatalf("window %d: %s journalled deadline %d dur %d, want %d and %d",
					window, name, g.DeadlineMillis, g.DurMillis, want, time.Minute.Milliseconds())
			}
		}
	}
}

// newAllocBase serves a lease-table node, robot1, over the in-process
// fabric (node-side handlers as lean as a receiver's) and returns a base that
// has adapted it with nExts extensions, traced by tr when it is not nil,
// together with the batch items that renew all of the node's leases.
func newAllocBase(t *testing.T, nExts int, tr *trace.Tracer) (*Base, []lease.BatchItem) {
	t.Helper()
	fabric := transport.NewInProc()
	mux := transport.NewMux()
	transport.Register(mux, MethodApplyBatch, func(_ context.Context, req ApplyBatchReq) (ApplyBatchResp, error) {
		resp := ApplyBatchResp{Installs: make([]InstallItemResp, len(req.Installs)), Revokes: make([]RevokeItemResp, len(req.Revokes))}
		for i := range req.Installs {
			resp.Installs[i].LeaseID = fmt.Sprintf("L%d", i)
		}
		return resp, nil
	})
	transport.Register(mux, MethodRenewBatch, func(_ context.Context, req RenewBatchReq) (RenewBatchResp, error) {
		resp := RenewBatchResp{Items: make([]RenewItemResp, len(req.Items))}
		for i, it := range req.Items {
			resp.Items[i].DurMillis = it.DurMillis
		}
		return resp, nil
	})
	transport.Register(mux, MethodRenewE, func(_ context.Context, req RenewExtReq) (RenewExtResp, error) {
		return RenewExtResp{DurMillis: req.DurMillis}, nil
	})
	stop, err := fabric.Serve("robot1", mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBase(BaseConfig{
		Name: "hall-1", Addr: "base-1", Caller: fabric.Node("base-1"), Signer: signer,
		Clock: clock.NewManual(time.Unix(1000, 0)), LeaseDur: time.Minute, CallTimeout: time.Hour,
		// The largest batch a budget below covers.
		RenewBatch: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	if tr != nil {
		b.Trace(tr)
	}
	for i := 0; i < nExts; i++ {
		if err := b.AddExtension(noopExt(fmt.Sprintf("e%02d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	s := b.nodes.shard("robot1")
	s.mu.Lock()
	var items []lease.BatchItem
	for name, g := range s.adapted["robot1"].grants {
		items = append(items, lease.BatchItem{ID: g.leaseID, Name: name})
	}
	s.mu.Unlock()
	if len(items) != nExts {
		t.Fatalf("node holds %d grants, want %d", len(items), nExts)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Name < items[j].Name })
	return b, items
}

// Renewal call allocation budgets, node side included, over the in-process
// fabric. A 2-lease midas.renewBatch costs the base its call context (which
// holds the deadline, the span context and the fabric's peer stamp) and the
// request body, and the node its decoded Items and built response Items; the
// node's request and response boxes are pooled, its lease IDs are views into
// the request body, and its response body is recycled by the fabric. None of
// these grows with the lease count.
const (
	renewBatchAllocBudget = 4
	renewOneAllocBudget   = 3
)

// renewAllocs runs one renewNodeBatch of items per iteration and checks every
// lease was renewed.
func renewAllocs(t *testing.T, b *Base, items []lease.BatchItem) float64 {
	t.Helper()
	out := make([]lease.BatchResult, len(items))
	allocs := testing.AllocsPerRun(200, func() {
		if err := b.renewNodeBatch("robot1", items, out); err != nil {
			t.Fatal(err)
		}
	})
	for i, r := range out {
		if r.ID != items[i].ID || r.Err != nil || r.Granted != time.Minute {
			t.Fatalf("result %d = %+v, want %s renewed for a minute", i, r, items[i].ID)
		}
	}
	return allocs
}

// TestRenewNodeBatchAllocBudget pins what one 2-lease midas.renewBatch costs.
func TestRenewNodeBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the wire codec's buffer pool drops items at random under -race")
	}
	b, items := newAllocBase(t, 2, nil)
	allocs := renewAllocs(t, b, items)
	t.Logf("%.0f allocs per 2-lease renew call", allocs)
	if allocs > renewBatchAllocBudget {
		t.Errorf("2-lease renew call: %.0f allocs, budget %d", allocs, renewBatchAllocBudget)
	}
}

// TestRenewNodeBatch64AllocBudget holds a 64-lease batch (the scheduler's
// default MaxBatch) to the 2-lease budget: the count is constant in the
// batch's lease count.
func TestRenewNodeBatch64AllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the wire codec's buffer pool drops items at random under -race")
	}
	b, items := newAllocBase(t, 64, nil)
	allocs := renewAllocs(t, b, items)
	t.Logf("%.0f allocs per 64-lease renew call", allocs)
	if allocs > renewBatchAllocBudget {
		t.Errorf("64-lease renew call: %.0f allocs, budget %d (the 2-lease budget)", allocs, renewBatchAllocBudget)
	}
}

// TestRenewNodeBatch128AllocBudget holds a 128-lease batch (RenewBatch 128)
// to the same budget: the batch span's leases tag is a count string the base
// formatted once, not a strconv.Itoa that allocates from 100 on.
func TestRenewNodeBatch128AllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the wire codec's buffer pool drops items at random under -race")
	}
	b, items := newAllocBase(t, 128, nil)
	allocs := renewAllocs(t, b, items)
	t.Logf("%.0f allocs per 128-lease renew call", allocs)
	if allocs > renewBatchAllocBudget {
		t.Errorf("128-lease renew call: %.0f allocs, budget %d (the 2-lease budget)", allocs, renewBatchAllocBudget)
	}
}

// TestRenewNodeBatchTracedAllocBudget runs the 2- and 64-lease batches on a
// base traced with the production sampler (1%, tail-keep at 50ms), whose
// install traces were sampled out. The batch root's trace and span IDs share
// one allocation, the call context carries the span, and every sampled-out
// lease.renew item span is only counted: at most one allocation over the
// untraced budget, at either size.
func TestRenewNodeBatchTracedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the wire codec's buffer pool drops items at random under -race")
	}
	for _, n := range []int{2, 64} {
		tr := trace.New(1)
		tr.SetSampler(trace.SamplerConfig{Rate: 0.01, Seed: 1, SlowThreshold: 50 * time.Millisecond})
		b, items := newAllocBase(t, n, tr)
		metas, _ := b.renewMeta("robot1", items, nil)
		for _, m := range metas {
			if sampled, known := m.sc.SampleDecision(); sampled || !known {
				t.Fatalf("%d leases: install trace of %s has flags %#x, want sampled out", n, m.ext, m.sc.Flags)
			}
		}
		allocs := renewAllocs(t, b, items)
		t.Logf("%.0f allocs per traced %d-lease renew call", allocs, n)
		if allocs > renewBatchAllocBudget+1 {
			t.Errorf("traced %d-lease renew call: %.0f allocs, budget %d", n, allocs, renewBatchAllocBudget+1)
		}
	}
}

// TestRenewItemSpansAllocBudget checks the per-item lease.renew spans of a
// batch. Under sampled-out install traces each item adds exactly one to
// SamplerStats' sampled-out count and nothing to the ring, at no allocation;
// a failed item is tail-kept with its ext and node tags; an item whose
// install trace was sampled in is recorded.
func TestRenewItemSpansAllocBudget(t *testing.T) {
	tr := trace.New(1)
	tr.SetSampler(trace.SamplerConfig{Rate: 0.01, Seed: 1, SlowThreshold: 50 * time.Millisecond})
	b, items := newAllocBase(t, 4, tr)
	out := make([]lease.BatchResult, len(items))
	renews := func() int { return len(tr.Spans(trace.Filter{Name: "lease.renew"})) }
	before, kept0 := tr.SamplerStats()
	recorded0 := renews()
	if err := b.renewNodeBatch("robot1", items, out); err != nil {
		t.Fatal(err)
	}
	after, kept := tr.SamplerStats()
	// The batch root and the fabric's rpc.call span are sampled out too.
	if got := after - before - 2; got != uint64(len(items)) || kept != kept0 || renews() != recorded0 {
		t.Fatalf("a %d-lease batch counted %d item spans sampled out (tail-kept %d->%d, recorded %d->%d), want one each and none kept",
			len(items), got, kept0, kept, recorded0, renews())
	}
	if !raceEnabled {
		metas, _ := b.renewMeta("robot1", items, nil)
		allocs := testing.AllocsPerRun(100, func() {
			for _, m := range metas {
				tr.Child(m.sc, "lease.renew", nil, trace.Tag{Key: "ext", Value: m.ext}, trace.Tag{Key: "node", Value: m.nodeID})
			}
		})
		if allocs != 0 {
			t.Fatalf("sampled-out item spans: %.0f allocs per batch, want 0", allocs)
		}
	}

	// A lease the node no longer knows fails its item, which tail-keep keeps.
	fail := transport.NewMux()
	transport.Register(fail, MethodRenewBatch, func(_ context.Context, req RenewBatchReq) (RenewBatchResp, error) {
		resp := RenewBatchResp{Items: make([]RenewItemResp, len(req.Items))}
		resp.Items[0].Err = "lease: unknown lease " + req.Items[0].LeaseID
		for i := 1; i < len(req.Items); i++ {
			resp.Items[i].DurMillis = req.Items[i].DurMillis
		}
		return resp, nil
	})
	b.caller = failingNode{fail}
	if err := b.renewNodeBatch("robot1", items, out); err != nil {
		t.Fatal(err)
	}
	failed := tr.Spans(trace.Filter{Name: "lease.renew", Tags: map[string]string{"ext": items[0].Name, "node": "robot1"}})
	if len(failed) != 1 || failed[0].Err == "" {
		t.Fatalf("failed item spans = %+v, want one tail-kept span with ext=%s node=robot1", failed, items[0].Name)
	}
	if _, k := tr.SamplerStats(); k != kept+1 {
		t.Fatalf("tail-kept %d -> %d, want one more", kept, k)
	}

	// An install trace sampled in records its item.
	s := b.nodes.shard("robot1")
	s.mu.Lock()
	g := s.adapted["robot1"].grants[items[1].Name]
	g.sc.Flags |= trace.FlagSampled
	s.mu.Unlock()
	if err := b.renewNodeBatch("robot1", items, out); err != nil {
		t.Fatal(err)
	}
	rec := tr.Spans(trace.Filter{Name: "lease.renew", Tags: map[string]string{"ext": items[1].Name, "node": "robot1"}})
	if len(rec) != 1 || rec[0].Err != "" || rec[0].ParentID != g.sc.SpanID {
		t.Fatalf("sampled-in item spans = %+v, want one recorded under the push span %s", rec, g.sc.SpanID)
	}
}

// failingNode delivers calls straight to a mux, standing in for a node.
type failingNode struct{ h transport.Handler }

func (f failingNode) Call(ctx context.Context, _, method string, req, resp any) error {
	body, _, err := transport.EncodeBody(req, true)
	if err != nil {
		return err
	}
	out, err := f.h.Handle(ctx, method, body)
	if err != nil {
		return err
	}
	return transport.Decode(out, resp)
}

// TestRenewOneAllocBudget pins the singleton midas.renew the same way: the
// call context and the request body; the node's boxes are pooled, its lease
// ID is a view and its response body is recycled.
func TestRenewOneAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the wire codec's buffer pool drops items at random under -race")
	}
	b, _ := newAllocBase(t, 2, nil)
	var r lease.BatchResult
	allocs := testing.AllocsPerRun(200, func() {
		r = b.renewOne("robot1", "L0", renewItemMeta{})
	})
	if r.ID != "L0" || r.Err != nil || r.Granted != time.Minute {
		t.Fatalf("result = %+v, want L0 renewed for a minute", r)
	}
	t.Logf("%.0f allocs per singleton renew call", allocs)
	if allocs > renewOneAllocBudget {
		t.Errorf("singleton renew call: %.0f allocs, budget %d", allocs, renewOneAllocBudget)
	}
}

// TestRenewExtRespUnmarshalAllocs pins the singleton renewal's response decode
// at zero allocations: the decoder is pooled and the message has no strings.
func TestRenewExtRespUnmarshalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the wire codec's decoder pool drops items at random under -race")
	}
	frame := wire.Marshal(RenewExtResp{DurMillis: time.Minute.Milliseconds()})
	var resp RenewExtResp
	allocs := testing.AllocsPerRun(1000, func() {
		if err := wire.Unmarshal(frame, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if resp.DurMillis != time.Minute.Milliseconds() {
		t.Fatalf("decoded %+v", resp)
	}
	if allocs != 0 {
		t.Fatalf("wire.Unmarshal of RenewExtResp: %.0f allocs, want 0", allocs)
	}
}

// Apply call allocation budgets, under the production sampler (1%) over the
// in-process fabric, node side included: a one-install midas.applyBatch, the
// path of every single-extension push (AddExtension, ReplaceExtension), and a
// one-revoke midas.applyBatch, the path of RemoveExtension's per-node revoke.
// An install pays for its lease's renewal schedule, its sampled-out root span
// and the signed extension the node decodes, but not for signing: the base
// pushes the signed form its policy set holds. A revoke pays only for its
// call. The apply span tags its item counts instead of annotating them, so a
// sampled-out apply formats no text.
const (
	applyOneInstallAllocBudget = 30
	applyOneRevokeAllocBudget  = 10
)

// applyAllocs runs apply once per iteration against robot1 of a base traced
// under the production sampler, and checks its outcome.
func applyAllocs(t *testing.T, apply func(b *Base, n *adaptedNode) error) float64 {
	t.Helper()
	tr := trace.New(1)
	tr.SetSampler(trace.SamplerConfig{Rate: 0.01, Seed: 1, SlowThreshold: 50 * time.Millisecond})
	b, _ := newAllocBase(t, 1, tr)
	n := b.nodes.get("robot1")
	var err error
	allocs := testing.AllocsPerRun(200, func() { err = apply(b, n) })
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestApplyOneInstallAllocBudget pins what pushing one extension to one node
// costs.
func TestApplyOneInstallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the wire codec's buffer pool drops items at random under -race")
	}
	allocs := applyAllocs(t, func(b *Base, n *adaptedNode) error {
		// Re-push e00@1 as a policy change does: its signed form from the
		// policy set.
		errs, _ := b.applyToNode(context.Background(), n, b.extensions[:1], nil)
		return errs[0]
	})
	t.Logf("%.0f allocs per one-install apply", allocs)
	if allocs > applyOneInstallAllocBudget {
		t.Errorf("one-install apply: %.0f allocs, budget %d", allocs, applyOneInstallAllocBudget)
	}
}

// TestApplyOneRevokeAllocBudget pins what revoking one extension at one node
// costs, inside the sampled-out trace that installed it.
func TestApplyOneRevokeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the wire codec's buffer pool drops items at random under -race")
	}
	revokes := []string{"e00"}
	allocs := applyAllocs(t, func(b *Base, n *adaptedNode) error {
		// As RemoveExtension does: the revoke joins the install's trace.
		s := b.nodes.shard(n.addr)
		s.mu.Lock()
		sc := n.grants["e00"].sc
		s.mu.Unlock()
		ctx := trace.NewContext(context.Background(), sc)
		_, errs := b.applyToNode(ctx, n, nil, revokes)
		return errs[0]
	})
	t.Logf("%.0f allocs per one-revoke apply", allocs)
	if allocs > applyOneRevokeAllocBudget {
		t.Errorf("one-revoke apply: %.0f allocs, budget %d", allocs, applyOneRevokeAllocBudget)
	}
}
