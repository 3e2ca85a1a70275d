package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/sign"
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
	case MethodInstall:
		*(resp.(*InstallResp)) = InstallResp{LeaseID: fmt.Sprintf("L%d", seq)}
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

func newStormBase(t *testing.T, clk clock.Clock, caller transport.Caller, breaker *transport.BreakerSet, batch, workers int) (*Base, *metrics.Registry) {
	t.Helper()
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBase(BaseConfig{
		Name:          "hall-1",
		Addr:          "base-1",
		Caller:        caller,
		Signer:        signer,
		Clock:         clk,
		Breaker:       breaker,
		LeaseDur:      time.Minute,
		RenewFraction: 0.5,
		RenewRetries:  1,
		RenewBatch:    batch,
		RenewWorkers:  workers,
		CallTimeout:   time.Hour,
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
	b, reg := newStormBase(t, clk, caller, nil, batch, 1)

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

// TestRenewalStormCrashParksNodeWithoutStallingOthers crashes one node in a
// two-node storm: its batch fails, retries exhaust, and the breaker parks it
// degraded — while the healthy node's renewals in the same ticks all land.
func TestRenewalStormCrashParksNodeWithoutStallingOthers(t *testing.T) {
	const nExts = 6
	clk := clock.NewManual(time.Unix(1000, 0))
	caller := newStormCaller()
	breaker := transport.NewBreakerSet(1, transport.BreakerConfig{
		Threshold: 1,
		Cooldown:  time.Hour,
		Jitter:    0,
		Clock:     clk,
	})
	b, reg := newStormBase(t, clk, caller, breaker, 8, 2)

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

	// robot-a dies mid-flight; its renewal batch at t+30s fails, the retry at
	// t+45s fast-fails on the open circuit, and the node parks degraded.
	caller.crash("robot-a")
	drainRenewals(t, clk, b, 50*time.Second, 10*time.Second)
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
		recs, err := journal.Nodes()
		if err != nil {
			t.Fatal(err)
		}
		rec := recs["robot1"]
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

// newAllocBase serves a renewal-only node, robot1, over the in-process
// fabric (node-side handlers as lean as a receiver's) and returns a base that
// has adapted it with extensions a and b.
func newAllocBase(t *testing.T) *Base {
	t.Helper()
	fabric := transport.NewInProc()
	mux := transport.NewMux()
	transport.Register(mux, MethodApplyBatch, func(_ context.Context, req ApplyBatchReq) (ApplyBatchResp, error) {
		resp := ApplyBatchResp{Installs: make([]InstallItemResp, len(req.Installs))}
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
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	for _, name := range []string{"a", "b"} {
		if err := b.AddExtension(noopExt(name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AdaptNode("robot1", "robot1"); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRenewNodeBatchAllocBudget pins what one 2-lease midas.renewBatch costs
// the base over the in-process fabric, node side included: the call deadline,
// the peer stamp and both bodies, plus the node's request and response boxes,
// decoded items and lease IDs and built response items. The base's request and
// response are pooled, and per-lease metadata and results live in caller and
// stack buffers; none of them adds an allocation.
func TestRenewNodeBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the wire codec's buffer pool drops items at random under -race")
	}
	b := newAllocBase(t)
	items := []lease.BatchItem{{ID: "L0", Name: "a"}, {ID: "L1", Name: "b"}}
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
	const budget = 10
	t.Logf("%.0f allocs per 2-lease renew call", allocs)
	if allocs > budget {
		t.Errorf("2-lease renew call: %.0f allocs, budget %d", allocs, budget)
	}
}

// TestRenewOneAllocBudget pins the singleton midas.renew the same way: the
// call deadline, the peer stamp and both bodies, plus the node's request and
// response boxes and decoded lease ID.
func TestRenewOneAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the wire codec's buffer pool drops items at random under -race")
	}
	b := newAllocBase(t)
	var r lease.BatchResult
	allocs := testing.AllocsPerRun(200, func() {
		r = b.renewOne("robot1", "L0", renewItemMeta{})
	})
	if r.ID != "L0" || r.Err != nil || r.Granted != time.Minute {
		t.Fatalf("result = %+v, want L0 renewed for a minute", r)
	}
	const budget = 7
	t.Logf("%.0f allocs per singleton renew call", allocs)
	if allocs > budget {
		t.Errorf("singleton renew call: %.0f allocs, budget %d", allocs, budget)
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
