package lease

import (
	"context"
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
// metric counters.
func TestSchedulerRetriesThenFailsNode(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	reg := metrics.New()
	h := newSchedHarness(10 * time.Second)
	h.fail["node-a"] = errors.New("unreachable")
	s := NewScheduler(clk, SchedulerConfig{
		Tick:       time.Second,
		Fraction:   0.5,
		Renew:      h.renew,
		OnRenew:    h.onRenew,
		OnNodeFail: h.onFail,
	})
	s.Instrument(reg)
	defer s.Stop()

	s.Add("node-a", "lease-1", "", 10*time.Second)
	s.Add("node-b", "lease-2", "", 10*time.Second)

	// First attempt at 5s, then one retry per tick at 6s to 9s: each leaves
	// a full tick before the lease ends at 10s. node-b renews fine
	// throughout.
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
	if got := snap.Counters["lease.renew_retries"]; got != 4 {
		t.Errorf("renew_retries = %d, want 4", got)
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

// stepSched advances clk by total in one-second steps, letting s settle after
// each one.
func stepSched(t *testing.T, clk *clock.Manual, s *Scheduler, total time.Duration) {
	t.Helper()
	for elapsed := time.Duration(0); elapsed < total; elapsed += time.Second {
		clk.Advance(time.Second)
		waitSched(t, "tick settle", s.Quiesced)
	}
}

// TestSchedulerAdoptsShorterLease: a grantor may return a shorter lease than
// requested. The scheduler must adopt it and renew on the shorter period, or
// the lease lapses between renewals.
func TestSchedulerAdoptsShorterLease(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	var mu sync.Mutex
	var at []time.Time
	s := NewScheduler(clk, SchedulerConfig{
		Tick:     time.Second,
		Fraction: 0.5,
		Renew: func(_ string, items []BatchItem, results []BatchResult) error {
			mu.Lock()
			at = append(at, clk.Now())
			mu.Unlock()
			// Grant only 4s of the requested 10s.
			results[0] = BatchResult{ID: items[0].ID, Granted: 4 * time.Second}
			return nil
		},
	})
	defer s.Stop()

	s.Add("node-a", "l", "", 10*time.Second)
	stepSched(t, clk, s, 7*time.Second)
	mu.Lock()
	defer mu.Unlock()
	// Half of the original 10s, then half of the granted 4s, not 5s.
	want := []time.Time{time.Unix(5, 0), time.Unix(7, 0)}
	if len(at) != len(want) || !at[0].Equal(want[0]) || !at[1].Equal(want[1]) {
		t.Fatalf("renewals at %v, want %v (shorter lease adopted)", at, want)
	}
}

// TestSchedulerKeepsGrantorLeaseAlive renews a real Grantor's lease: it
// stays alive for many windows while the scheduler runs, and expires once
// the scheduler is stopped.
func TestSchedulerKeepsGrantorLeaseAlive(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	g := NewGrantor(clk)
	expired := make(chan ID, 1)
	l := g.Grant(context.Background(), 10*time.Second, func(id ID) { expired <- id })
	s := NewScheduler(clk, SchedulerConfig{
		Tick:     time.Second,
		Fraction: 0.5,
		Renew: func(_ string, items []BatchItem, results []BatchResult) error {
			for i, it := range items {
				rl, err := g.Renew(context.Background(), it.ID, 10*time.Second)
				results[i] = BatchResult{ID: it.ID, Granted: rl.Duration, Err: err}
			}
			return nil
		},
	})
	s.Add("node-a", l.ID, "", l.Duration)

	for i := 0; i < 40; i++ {
		stepSched(t, clk, s, time.Second)
		g.ExpireNow()
	}
	select {
	case <-expired:
		t.Fatal("lease expired while the scheduler kept it")
	default:
	}
	s.Stop()
	clk.Advance(11 * time.Second)
	if n := g.ExpireNow(); n != 1 {
		t.Fatalf("expired %d leases after Stop, want 1", n)
	}
	if id := <-expired; id != l.ID {
		t.Fatalf("expired %s, want %s", id, l.ID)
	}
}

// TestRenewerFailureCallback renews, through the scheduler, a lease its
// grantor has cancelled: the renewal fails with ErrUnknownLease, and that
// error reaches OnNodeFail for the lease's node.
func TestRenewerFailureCallback(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	g := NewGrantor(clk)
	l := g.Grant(context.Background(), 10*time.Second, nil)
	if err := g.Cancel(l.ID); err != nil {
		t.Fatal(err)
	}
	failed := make(chan error, 1)
	s := NewScheduler(clk, SchedulerConfig{
		Tick:     time.Second,
		Fraction: 0.5,
		Renew: func(_ string, items []BatchItem, results []BatchResult) error {
			_, err := g.Renew(context.Background(), items[0].ID, 10*time.Second)
			results[0] = BatchResult{ID: items[0].ID, Err: err}
			return nil
		},
		OnNodeFail: func(node string, err error) {
			if node != "node-a" {
				t.Errorf("OnNodeFail node = %q, want node-a", node)
			}
			failed <- err
		},
	})
	defer s.Stop()

	s.Add("node-a", l.ID, "", l.Duration)
	stepSched(t, clk, s, 5*time.Second)
	select {
	case err := <-failed:
		if !errors.Is(err, ErrUnknownLease) {
			t.Errorf("failure err = %v, want ErrUnknownLease", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scheduler did not report the failed renewal")
	}
}

// TestRenewerRetriesExhaustedReportsOnce renews, through the scheduler, a
// grantor's lease over a link that is down: every retry stays inside the
// lease, and once no retry fits the link's error reaches OnNodeFail exactly
// once.
func TestRenewerRetriesExhaustedReportsOnce(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	g := NewGrantor(clk)
	l := g.Grant(context.Background(), 8*time.Second, nil)
	linkDown := errors.New("link down")
	var mu sync.Mutex
	var attempts []time.Time
	var failures []error
	s := NewScheduler(clk, SchedulerConfig{
		Tick:     time.Second,
		Fraction: 0.5,
		Renew: func(_ string, items []BatchItem, results []BatchResult) error {
			mu.Lock()
			attempts = append(attempts, clk.Now())
			mu.Unlock()
			return linkDown
		},
		OnNodeFail: func(_ string, err error) {
			mu.Lock()
			failures = append(failures, err)
			mu.Unlock()
		},
	})
	defer s.Stop()

	s.Add("node-a", l.ID, "", l.Duration)
	stepSched(t, clk, s, 20*time.Second)
	mu.Lock()
	defer mu.Unlock()
	// The first attempt at 4s, then a retry on each tick that leaves a full
	// tick before the lease ends at 8s: 5s, 6s and 7s.
	if len(attempts) != 4 {
		t.Fatalf("attempts at %v, want 4 (1 + 3 retries)", attempts)
	}
	for i, at := range attempts {
		if want := time.Unix(int64(4+i), 0); !at.Equal(want) {
			t.Errorf("attempt %d at %v, want %v", i, at, want)
		}
		if !at.Before(l.Expiry) {
			t.Errorf("attempt %d at %v, not before the lease's end %v", i, at, l.Expiry)
		}
	}
	if len(failures) != 1 || !errors.Is(failures[0], linkDown) {
		t.Fatalf("failures = %v, want exactly one link error", failures)
	}
}

// TestSchedulerStopDuringRetryReportsNoFailure stops the scheduler while a
// failed renewal's retry waits on the wheel. Stop is a deliberate halt: it
// must not report the node failed, which would make a base treat an orderly
// release as a departure.
func TestSchedulerStopDuringRetryReportsNoFailure(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	h := newSchedHarness(10 * time.Second)
	h.failIDs["l"] = errors.New("item refused")
	s := NewScheduler(clk, SchedulerConfig{
		Tick:       time.Second,
		Fraction:   0.5,
		Renew:      h.renew,
		OnNodeFail: h.onFail,
	})

	s.Add("node-a", "l", "", 10*time.Second)
	stepSched(t, clk, s, 5*time.Second) // the first renewal fails
	if got := h.callCount(); got != 1 {
		t.Fatalf("renew calls = %d, want 1", got)
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1 (retry armed)", got)
	}
	s.Stop()
	clk.Advance(20 * time.Second)

	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.failed) != 0 {
		t.Fatalf("Stop during a retry reported failures for %v", h.failed)
	}
	if len(h.calls) != 1 {
		t.Fatalf("renew calls = %d after Stop, want 1", len(h.calls))
	}
}

// failingRenewals is a scheduler whose every renewal fails with err,
// recording when each attempt fired and what OnNodeFail reported.
type failingRenewals struct {
	*Scheduler
	mu       sync.Mutex
	attempts []time.Time
	failed   chan error
}

func newFailingRenewals(t *testing.T, clk clock.Clock, tick time.Duration, err error) *failingRenewals {
	f := &failingRenewals{failed: make(chan error, 4)}
	f.Scheduler = NewScheduler(clk, SchedulerConfig{
		Tick:     tick,
		Fraction: 0.5,
		Renew: func(string, []BatchItem, []BatchResult) error {
			f.mu.Lock()
			f.attempts = append(f.attempts, clk.Now())
			f.mu.Unlock()
			return err
		},
		OnNodeFail: func(_ string, err error) { f.failed <- err },
	})
	t.Cleanup(f.Stop)
	return f
}

// wait returns the attempts once the node failure is reported, which must
// happen exactly once and carry want.
func (f *failingRenewals) wait(t *testing.T, want error) []time.Time {
	t.Helper()
	select {
	case err := <-f.failed:
		if !errors.Is(err, want) {
			t.Errorf("OnNodeFail err = %v, want %v", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the failing renewal was never reported")
	}
	f.Stop()
	if n := len(f.failed); n != 0 {
		t.Errorf("%d more failure reports, want exactly one", n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Time(nil), f.attempts...)
}

// TestSchedulerRetriesLandInsideLease fails every renewal of one lease and
// checks that every attempt fires strictly before the lease ends: on a
// manual clock stepped finer than the tick, one stepped nearly a tick at a
// time, and the real clock. An ErrUnknownLease answer is final: the renewal
// ends after one attempt.
func TestSchedulerRetriesLandInsideLease(t *testing.T) {
	unreachable := errors.New("unreachable")
	// A 10s lease renewed at half, with four ticks of slack.
	const lease, tick = 10 * time.Second, 1250 * time.Millisecond
	for _, step := range []time.Duration{250 * time.Millisecond, time.Second} {
		t.Run(fmt.Sprintf("manual/step=%v", step), func(t *testing.T) {
			start := time.Unix(0, 0)
			clk := clock.NewManual(start)
			f := newFailingRenewals(t, clk, tick, unreachable)
			f.Add("node-a", "l", "", lease)
			for clk.Now().Sub(start) < lease+5*time.Second {
				clk.Advance(step)
				waitSched(t, "tick settle", f.Quiesced)
			}
			attempts := f.wait(t, unreachable)
			// The renewal at 5s and a retry on each of the three ticks that
			// leave a full tick before 10s.
			if len(attempts) != 4 {
				t.Fatalf("attempts at %v, want 4 (1 + 3 retries)", attempts)
			}
			for i, at := range attempts {
				if !at.Before(start.Add(lease)) {
					t.Errorf("attempt %d at %v, not before the lease's end %v", i, at.Sub(start), lease)
				}
			}
		})
	}

	t.Run("real", func(t *testing.T) {
		const lease = 800 * time.Millisecond
		f := newFailingRenewals(t, clock.Real{}, lease/8, unreachable)
		end := time.Now().Add(lease)
		f.Add("node-a", "l", "", lease)
		attempts := f.wait(t, unreachable)
		if len(attempts) < 2 {
			t.Errorf("attempts at %v, want at least one retry", attempts)
		}
		for i, at := range attempts {
			if !at.Before(end) {
				t.Errorf("attempt %d at %v, past the lease's end by %v", i, at, at.Sub(end))
			}
		}
	})

	t.Run("unknown-lease", func(t *testing.T) {
		clk := clock.NewManual(time.Unix(0, 0))
		f := newFailingRenewals(t, clk, tick, ErrUnknownLease)
		f.Add("node-a", "l", "", lease)
		stepSched(t, clk, f.Scheduler, lease)
		if attempts := f.wait(t, ErrUnknownLease); len(attempts) != 1 {
			t.Fatalf("attempts at %v, want 1: ErrUnknownLease is final", attempts)
		}
	})
}
