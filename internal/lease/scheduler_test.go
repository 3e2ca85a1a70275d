package lease

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// schedHarness records every batched renew call a Scheduler makes.
type schedHarness struct {
	mu      sync.Mutex
	calls   []schedCall
	granted time.Duration
	fail    map[string]error // node -> call-level error
	failIDs map[ID]error     // per-item errors
	renewed []ID
	failed  []string
}

type schedCall struct {
	node  string
	items []BatchItem
}

func newSchedHarness(granted time.Duration) *schedHarness {
	return &schedHarness{granted: granted, fail: map[string]error{}, failIDs: map[ID]error{}}
}

func (h *schedHarness) renew(node string, items []BatchItem, results []BatchResult) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls = append(h.calls, schedCall{node: node, items: append([]BatchItem(nil), items...)})
	if err := h.fail[node]; err != nil {
		return err
	}
	for i, it := range items {
		results[i] = BatchResult{ID: it.ID, Granted: h.granted, Err: h.failIDs[it.ID]}
	}
	return nil
}

func (h *schedHarness) onRenew(node string, renewed []Renewal) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range renewed {
		h.renewed = append(h.renewed, r.ID)
	}
}

func (h *schedHarness) onFail(node string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failed = append(h.failed, node)
}

func (h *schedHarness) callCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.calls)
}

func waitSched(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s: condition not reached before deadline", what)
}

// TestSchedulerCoalescesPerNode grants many leases at two nodes in the same
// tick and checks renewals arrive as one batched call per node, not one call
// per lease.
func TestSchedulerCoalescesPerNode(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	h := newSchedHarness(10 * time.Second)
	s := NewScheduler(clk, SchedulerConfig{
		Tick:     time.Second,
		Fraction: 0.5,
		MaxBatch: 64,
		Renew:    h.renew,
		OnRenew:  h.onRenew,
	})
	defer s.Stop()

	for i := 0; i < 40; i++ {
		node := "node-a"
		if i%2 == 1 {
			node = "node-b"
		}
		s.Add(node, ID(string(rune('a'+i))), "", 10*time.Second)
	}
	if got := s.Len(); got != 40 {
		t.Fatalf("Len = %d, want 40", got)
	}

	clk.Advance(5 * time.Second) // all 40 come due at window*fraction
	waitSched(t, "first renewal wave", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.renewed) == 40
	})
	h.mu.Lock()
	calls := append([]schedCall(nil), h.calls...)
	h.mu.Unlock()
	if len(calls) != 2 {
		t.Fatalf("40 leases at 2 nodes renewed in %d calls, want 2 (one per node)", len(calls))
	}
	for _, c := range calls {
		if len(c.items) != 20 {
			t.Errorf("call to %s carried %d items, want 20", c.node, len(c.items))
		}
	}
}

// TestSchedulerChunksAtMaxBatch checks an oversized due set splits into
// ceil(N/MaxBatch) calls.
func TestSchedulerChunksAtMaxBatch(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	h := newSchedHarness(10 * time.Second)
	s := NewScheduler(clk, SchedulerConfig{
		Tick:     time.Second,
		Fraction: 0.5,
		MaxBatch: 16,
		Renew:    h.renew,
		OnRenew:  h.onRenew,
	})
	defer s.Stop()

	for i := 0; i < 50; i++ {
		s.Add("node-a", ID(string(rune('0'+i))), "", 10*time.Second)
	}
	clk.Advance(5 * time.Second)
	waitSched(t, "chunked wave", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.renewed) == 50
	})
	if got := h.callCount(); got != 4 { // ceil(50/16)
		t.Fatalf("50 leases renewed in %d calls, want 4", got)
	}
}

// TestSchedulerRetriesThenFailsNode drives one node's renewals into terminal
// failure and checks the retry pacing, the single OnNodeFail report, and the
// metric counters, mirroring Renewer semantics.
func TestSchedulerRetriesThenFailsNode(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	reg := metrics.New()
	h := newSchedHarness(10 * time.Second)
	h.fail["node-a"] = errors.New("unreachable")
	s := NewScheduler(clk, SchedulerConfig{
		Tick:       time.Second,
		Fraction:   0.5,
		Retries:    2,
		Renew:      h.renew,
		OnRenew:    h.onRenew,
		OnNodeFail: h.onFail,
	})
	s.Instrument(reg)
	defer s.Stop()

	s.Add("node-a", "lease-1", "", 10*time.Second)
	s.Add("node-b", "lease-2", "", 10*time.Second)

	// First attempt at 5s; retries spaced slack/(retries+1) land within the
	// remaining 5s of lease. node-b renews fine throughout.
	for i := 0; i < 10; i++ {
		clk.Advance(time.Second)
		waitSched(t, "tick settle", s.Quiesced)
	}
	h.mu.Lock()
	failed := append([]string(nil), h.failed...)
	h.mu.Unlock()
	if len(failed) != 1 || failed[0] != "node-a" {
		t.Fatalf("failed nodes = %v, want exactly [node-a]", failed)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["lease.renew_retries"]; got != 2 {
		t.Errorf("renew_retries = %d, want 2", got)
	}
	if got := snap.Counters["lease.renew_failures"]; got != 1 {
		t.Errorf("renew_failures = %d, want 1", got)
	}
	if got := snap.Counters["lease.renews_sent"]; got == 0 {
		t.Error("node-b sent no renewals while node-a was failing")
	}
	if got := s.Len(); got != 1 {
		t.Errorf("Len = %d after node-a failed, want 1 (node-b only)", got)
	}
	if got := snap.Gauges["lease.scheduled"]; got != 1 {
		t.Errorf("lease.scheduled = %d, want 1", got)
	}
}

// TestSchedulerCancelNodeDropsInFlight cancels a node between due-collection
// and settle and checks nothing resurrects the entries.
func TestSchedulerCancelNodeDropsInFlight(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	h := newSchedHarness(10 * time.Second)
	release := make(chan struct{})
	started := make(chan string, 8)
	s := NewScheduler(clk, SchedulerConfig{
		Tick:     time.Second,
		Fraction: 0.5,
		Renew: func(node string, items []BatchItem, results []BatchResult) error {
			started <- node
			<-release
			return h.renew(node, items, results)
		},
		OnRenew: h.onRenew,
	})
	defer s.Stop()

	s.Add("node-a", "lease-1", "", 10*time.Second)
	clk.Advance(5 * time.Second)
	<-started // renew call for node-a is now parked mid-flight
	s.CancelNode("node-a")
	close(release)
	waitSched(t, "in-flight settle", s.Quiesced)
	if got := s.Len(); got != 0 {
		t.Fatalf("Len = %d after CancelNode, want 0", got)
	}
	// The parked call's success must not re-arm the cancelled lease.
	clk.Advance(20 * time.Second)
	waitSched(t, "post-cancel settle", s.Quiesced)
	if got := h.callCount(); got != 1 {
		t.Fatalf("renew calls = %d, want 1 (no renewals after CancelNode)", got)
	}
}

// TestSchedulerWindowAllocBudget pins the steady-state cost of a renewal
// window with a no-op renew func: leases keep their timers and the workers
// their buffers, so a window allocates a few objects per flush, not per
// lease.
func TestSchedulerWindowAllocBudget(t *testing.T) {
	const (
		nodes, perNode = 50, 4
		leases         = nodes * perNode
		window         = 10 * time.Second
	)
	clk := clock.NewManual(time.Unix(0, 0))
	s := NewScheduler(clk, SchedulerConfig{
		Tick:     time.Second,
		Fraction: 0.5,
		Renew: func(node string, items []BatchItem, results []BatchResult) error {
			for i, it := range items {
				results[i] = BatchResult{ID: it.ID, Granted: window}
			}
			return nil
		},
		OnRenew: func(string, []Renewal) {},
	})
	defer s.Stop()
	for n := 0; n < nodes; n++ {
		for l := 0; l < perNode; l++ {
			s.Add(fmt.Sprintf("node-%02d", n), ID(fmt.Sprintf("L%d", l)), "ext", window)
		}
	}
	step := func() {
		clk.Advance(window / 2)
		for !s.Quiesced() {
			runtime.Gosched()
		}
	}
	for i := 0; i < 3; i++ {
		step() // grow the reused buffers
	}
	perLease := testing.AllocsPerRun(20, step) / leases
	t.Logf("%.3f allocs per lease per window", perLease)
	if perLease > 0.05 {
		t.Errorf("steady-state window: %.3f allocs per lease, budget 0.05", perLease)
	}
}
