package lease

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestSchedulerLifecycleInvariants drives a scheduler through a seeded random
// mix of Add, re-Add, Cancel, CancelNode, per-item and whole-call renewal
// failures, cancels and re-Adds landing while renewals are queued or in
// flight, and manual clock steps. Each lease reuses one wheel timer for its
// whole life, so a stale handle that cancelled or re-fired a newer arm would
// break one of the invariants checked here:
//   - at every quiescent step each tracked lease has exactly one armed timer;
//   - no lease that stopped being tracked is ever passed to Renew;
//   - OnRenew never reports a lease that stopped being tracked, nor the
//     outcome of a renewal that was in flight when its lease was cancelled or
//     re-added.
//
// Every Add names its lease with a fresh generation, so "tracked" means the
// very arm that was added, not just its (node, id) pair.
func TestSchedulerLifecycleInvariants(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, seed := range []int64{1, 7, 20030901} {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				runSchedulerLifecycle(t, seed, workers)
			})
		}
	}
}

func runSchedulerLifecycle(t *testing.T, seed int64, workers int) {
	const (
		tick  = time.Second
		steps = 400
		nodes = 4
	)
	rng := rand.New(rand.NewSource(seed))
	clk := clock.NewManual(time.Unix(0, 0))

	// Test-side state, guarded by mu; the random source is shared with the
	// renew func, which also draws under mu.
	var (
		mu       sync.Mutex
		failNode = map[string]bool{}
		failID   = map[ID]bool{}
		ids      []ID // every lease ID ever added
		gen      int
		// touched holds the node/id pairs cancelled or re-added by a renew
		// func during the current step. None can renew again before the
		// next clock step, so a report of one is a stale outcome.
		touched  = map[string]bool{}
		problems []string
	)
	nodeName := func() string { return fmt.Sprintf("node-%d", rng.Intn(nodes)) }
	nextName := func() string { gen++; return fmt.Sprintf("g%d", gen) }
	var s *Scheduler
	current := func(node string, it BatchItem) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		e := s.byNode[node][it.ID]
		return e != nil && !e.removed && e.name == it.Name
	}
	report := func(format string, args ...any) {
		mu.Lock()
		problems = append(problems, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	s = NewScheduler(clk, SchedulerConfig{
		Tick:     tick,
		Slots:    16,
		Fraction: 0.5,
		MaxBatch: 3,
		Workers:  workers,
		Renew: func(node string, items []BatchItem, results []BatchResult) error {
			for _, it := range items {
				if !current(node, it) {
					report("Renew got untracked lease %s/%s (%s)", node, it.ID, it.Name)
				}
			}
			// While the call is in flight, cancel or re-Add leases. With
			// one worker any lease is fair game, including queued ones
			// about to be dispatched. With two, only this call's own
			// leases: another worker may be between dispatch and its Renew
			// call, where a cancel is legitimately not seen.
			type op struct {
				kind     int // 0 cancel, 1 re-Add, 2 cancel node
				node     string
				id       ID
				name     string
				window   time.Duration
				ownBatch bool
			}
			var ops []op
			mu.Lock()
			for _, it := range items {
				if rng.Float64() >= 0.15 {
					continue
				}
				o := op{kind: rng.Intn(2), node: node, id: it.ID}
				if workers == 1 && len(ids) > 0 && rng.Intn(2) == 0 {
					o.node, o.id = nodeName(), ids[rng.Intn(len(ids))]
					o.kind = rng.Intn(3)
				}
				o.name, o.window = nextName(), time.Duration(1+rng.Intn(10))*tick
				ops = append(ops, o)
			}
			for _, o := range ops {
				touched[o.node+"/"+string(o.id)] = true
			}
			callFails := failNode[node]
			for i, it := range items {
				results[i] = BatchResult{ID: it.ID, Granted: time.Duration(2+rng.Intn(8)) * tick}
				if failID[it.ID] {
					results[i].Err = errors.New("item refused")
				}
			}
			mu.Unlock()
			for _, o := range ops {
				switch o.kind {
				case 0:
					s.Cancel(o.node, o.id)
				case 1:
					s.Add(o.node, o.id, o.name, o.window)
				default:
					s.CancelNode(o.node)
				}
			}
			if callFails {
				return errors.New("node unreachable")
			}
			return nil
		},
		OnRenew: func(node string, renewed []Renewal) {
			for _, r := range renewed {
				mu.Lock()
				stale := touched[node+"/"+string(r.ID)]
				mu.Unlock()
				if stale || !current(node, r.BatchItem) {
					report("OnRenew reported untracked lease %s/%s (%s)", node, r.ID, r.Name)
				}
			}
		},
	})
	defer s.Stop()

	for step := 0; step < steps; step++ {
		mu.Lock()
		r := rng.Float64()
		var (
			node   = nodeName()
			window = time.Duration(1+rng.Intn(10)) * tick
			id     ID
			name   = nextName()
		)
		if len(ids) > 0 {
			id = ids[rng.Intn(len(ids))]
		}
		switch {
		case r < 0.3 || id == "":
			id = ID(fmt.Sprintf("L%d", len(ids)))
			ids = append(ids, id)
			mu.Unlock()
			s.Add(node, id, name, window)
		case r < 0.4:
			mu.Unlock()
			s.Add(node, id, name, window) // re-Add: resets the pair's schedule
		case r < 0.5:
			mu.Unlock()
			s.Cancel(node, id)
		case r < 0.54:
			mu.Unlock()
			s.CancelNode(node)
		case r < 0.62:
			failNode[node] = !failNode[node]
			mu.Unlock()
		case r < 0.7:
			failID[id] = !failID[id]
			mu.Unlock()
		default:
			mu.Unlock()
			clk.Advance(time.Duration(rng.Int63n(int64(3 * tick))))
			waitSched(t, "scheduler quiesced", s.Quiesced)
		}

		mu.Lock()
		bad := problems
		clear(touched)
		mu.Unlock()
		if len(bad) > 0 {
			t.Fatalf("step %d: %v", step, bad)
		}
		if w, n := s.wheel.Len(), s.Len(); w != n {
			t.Fatalf("step %d: %d armed timers for %d tracked leases", step, w, n)
		}
		s.mu.Lock()
		held := 0
		for _, leases := range s.byNode {
			for _, e := range leases {
				if e.removed {
					t.Errorf("step %d: removed lease %s/%s still indexed", step, e.node, e.id)
				}
				held++
			}
		}
		n := s.n
		s.mu.Unlock()
		if held != n {
			t.Fatalf("step %d: %d indexed leases, %d counted", step, held, n)
		}
	}
}
