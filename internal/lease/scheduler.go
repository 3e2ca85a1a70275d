package lease

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// BatchItem names one lease due for renewal in a batched renew call.
type BatchItem struct {
	ID ID
	// Name is the label the lease was added under (the base passes the
	// extension the lease keeps alive), so a renew func needs no lookup to
	// find it.
	Name string
}

// BatchResult reports one lease's renewal outcome. A zero Granted on success
// means the lease keeps its previous duration.
type BatchResult struct {
	ID      ID
	Granted time.Duration
	Err     error
}

// Renewal is one successful renewal, as reported to OnRenew.
type Renewal struct {
	BatchItem
	Granted time.Duration
}

// BatchRenewFunc renews all items held at one node in a single exchange. A
// call-level error fails every item (the node was unreachable); otherwise the
// per-item results decide. results is aligned with items and zeroed: the func
// stores item i's outcome in results[i], and a result whose ID is not its
// item's counts as no result for that item. Both slices are the scheduler's
// buffers, valid only for the duration of the call.
type BatchRenewFunc func(node string, items []BatchItem, results []BatchResult) error

// SchedulerConfig assembles a renewal Scheduler.
type SchedulerConfig struct {
	// Tick is the timer-wheel granularity (default 10ms); Slots the wheel
	// size (default 512).
	Tick  time.Duration
	Slots int
	// Fraction controls when a renewal fires relative to the lease duration
	// (default 0.5); Retries how many in-lease retries follow a failed
	// renewal, spaced evenly across the slack left before the lease lapses.
	Fraction float64
	Retries  int
	// MaxBatch caps how many leases ride in one batched renew call (default
	// 64); Workers how many renew calls may be in flight at once (default 1,
	// which keeps traffic ordering deterministic for traced scenarios).
	MaxBatch int
	Workers  int
	// Renew performs the batched renewal; OnRenew observes each call's
	// successes at once (for journaling; the slice is valid only for the
	// duration of the callback); OnNodeFail fires once per node per terminal
	// failure — the base's departure path. Both callbacks run off the
	// scheduler's locks.
	Renew      BatchRenewFunc
	OnRenew    func(node string, renewed []Renewal)
	OnNodeFail func(node string, err error)
}

// Scheduler keeps leases alive from the holder side using one hashed timer
// wheel and a small worker pool, instead of one goroutine per lease. All of
// a node's leases that come due in the same wheel advance coalesce into one
// batched renew call (chunked at MaxBatch).
//
// A renewal fires at Fraction of the lease's current window, and a shorter
// grant returned by the renew func is adopted for the next one. A failed
// renewal gets Retries more attempts, spaced slack/(Retries+1) apart, where
// slack is the (1-Fraction) share of the window left before the lease
// lapses. When they are spent the lease is dropped and OnNodeFail reports
// the node failed, once per renew call.
//
// Each tracked lease owns one wheel timer for its whole life, re-armed in
// place after every renewal, and carries its own removed flag, so the
// steady-state renewal window neither allocates per lease nor looks leases
// up to see whether they are still tracked.
type Scheduler struct {
	cfg   SchedulerConfig
	wheel *clock.Wheel

	// fired collects the entries whose timers fired in the current wheel
	// advance. Only the wheel goroutine touches it: the timer callbacks
	// append, flush drains. unflushed mirrors its length for Backlog.
	fired     []*schedEntry
	unflushed atomic.Int64

	mu     sync.Mutex
	byNode map[string]map[ID]*schedEntry
	n      int // tracked leases
	// groupOf, groups and order are flush's scratch, reused across flushes.
	groupOf map[string]int
	groups  []dueGroup
	order   []int
	queue   []renewJob // jobs queue[qhead:] are waiting for a worker
	qhead   int
	qcond   *sync.Cond
	pending int // queued + in-flight jobs, for Quiesced
	stopped bool

	wg sync.WaitGroup

	m         renewerMetrics
	scheduled *metrics.Gauge
}

type schedEntry struct {
	node     string
	id       ID
	name     string
	granted  time.Duration // current lease window; retry slack derives from it
	attempts int           // retries consumed for the renewal in progress
	timer    *clock.WheelTimer
	// removed is set, under the scheduler lock, when the entry stops being
	// tracked (cancelled, replaced by a re-Add, or failed for good). A fired,
	// queued or in-flight entry checks it instead of looking itself up.
	removed bool
	group   int // flush scratch: index of the entry's node group
}

// renewerMetrics counts holder-side renewal traffic; nil-safe until
// Instrument.
type renewerMetrics struct {
	renews   *metrics.Counter
	retries  *metrics.Counter
	failures *metrics.Counter
}

// dueGroup is one node's share of a flush.
type dueGroup struct {
	node  string
	n     int // live due entries
	start int // offset of the group in the flush's backing array
}

type renewJob struct {
	node    string
	entries []*schedEntry
}

// NewScheduler starts a scheduler on clk (nil means the real clock).
func NewScheduler(clk clock.Clock, cfg SchedulerConfig) *Scheduler {
	if clk == nil {
		clk = clock.Real{}
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 10 * time.Millisecond
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 512
	}
	if cfg.Fraction <= 0 || cfg.Fraction >= 1 {
		cfg.Fraction = 0.5
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	s := &Scheduler{
		cfg:     cfg,
		byNode:  make(map[string]map[ID]*schedEntry),
		groupOf: make(map[string]int),
	}
	s.qcond = sync.NewCond(&s.mu)
	s.wheel = clock.NewWheel(clk, cfg.Tick, cfg.Slots)
	s.wheel.OnFlush(s.flush)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Instrument records renewals sent, in-lease retries, terminal failures and
// the scheduled-lease gauge. Nil-safe; call before traffic for exact counts.
func (s *Scheduler) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = renewerMetrics{
		renews:   reg.Counter("lease.renews_sent"),
		retries:  reg.Counter("lease.renew_retries"),
		failures: reg.Counter("lease.renew_failures"),
	}
	s.scheduled = reg.Gauge("lease.scheduled")
	s.scheduled.Set(int64(s.n))
}

// Add tracks one lease held at node; name labels it on every BatchItem and
// Renewal. The first renewal fires at window*fraction from now (the full
// lease duration on a fresh grant, the remaining window on recovery); a
// non-positive window renews on the next tick. Re-adding an existing
// (node, id) pair resets its schedule.
func (s *Scheduler) Add(node string, id ID, name string, window time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	if old := s.byNode[node][id]; old != nil {
		// A fresh entry, not the old one reset: a renewal of the old one
		// may be in flight, and its outcome must not touch the new
		// schedule.
		s.removeLocked(old)
	}
	if window <= 0 {
		window = time.Millisecond
	}
	e := &schedEntry{node: node, id: id, name: name, granted: window}
	e.timer = s.wheel.NewTimer(func() {
		s.fired = append(s.fired, e)
		s.unflushed.Add(1)
	})
	leases := s.byNode[node]
	if leases == nil {
		leases = make(map[ID]*schedEntry)
		s.byNode[node] = leases
	}
	leases[id] = e
	s.n++
	e.timer.Reset(time.Duration(float64(window) * s.cfg.Fraction))
	s.gaugeLocked()
}

// Cancel stops renewing one lease. Safe for untracked pairs.
func (s *Scheduler) Cancel(node string, id ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.byNode[node][id]; e != nil {
		s.removeLocked(e)
		s.gaugeLocked()
	}
}

// CancelNode stops renewing every lease held at node (departure, release).
func (s *Scheduler) CancelNode(node string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.byNode[node] {
		s.removeLocked(e)
	}
	s.gaugeLocked()
}

// Len reports how many leases are being kept alive.
func (s *Scheduler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Backlog reports the renewal work outstanding right now: leases that came
// due but are not yet queued, plus queued and in-flight batch jobs. A healthy
// scheduler hovers near zero; a sustained backlog means the worker pool is
// not keeping up with the fleet's renewal rate.
func (s *Scheduler) Backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.unflushed.Load()) + s.pending
}

// Quiesced reports whether every tick the clock has passed was fully
// processed and no renewal work is queued or in flight, so a deterministic
// test can advance the clock tick by tick: advance, wait for Quiesced,
// advance again.
func (s *Scheduler) Quiesced() bool {
	if !s.wheel.Synced() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending == 0
}

// Stop halts the wheel and the workers and returns once they have exited.
// Armed renewals and pending retries never fire again and queued work is
// dropped, so none of them reports a failure. An in-flight renew call is
// waited for, and its outcome is settled as usual.
func (s *Scheduler) Stop() {
	s.wheel.Stop()
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.pending -= len(s.queue) - s.qhead
	s.queue, s.qhead = nil, 0
	s.qcond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// removeLocked stops tracking e: its timer is disarmed and every fired,
// queued or in-flight reference to it sees removed.
func (s *Scheduler) removeLocked(e *schedEntry) {
	e.timer.Cancel()
	e.removed = true
	s.n--
	if m := s.byNode[e.node]; m != nil {
		delete(m, e.id)
		if len(m) == 0 {
			delete(s.byNode, e.node)
		}
	}
}

func (s *Scheduler) gaugeLocked() {
	if s.scheduled != nil {
		s.scheduled.Set(int64(s.n))
	}
}

// flush runs on the wheel goroutine after each advance that fired timers: it
// groups everything that came due by node — the coalescing step — and hands
// the worker pool one job per node per MaxBatch chunk. The due entries of
// one flush share one backing array, laid out node by node.
func (s *Scheduler) flush() {
	fired := s.fired
	if len(fired) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.groupOf)
	groups := s.groups[:0]
	live := 0
	for _, e := range fired {
		if e.removed {
			continue // cancelled between firing and flush
		}
		g, ok := s.groupOf[e.node]
		if !ok {
			g = len(groups)
			s.groupOf[e.node] = g
			groups = append(groups, dueGroup{node: e.node})
		}
		groups[g].n++
		e.group = g
		live++
	}
	// Deterministic dispatch order: nodes sorted by name. order lists the
	// group indices in that order.
	order := s.order[:0]
	for i := range groups {
		order = append(order, i)
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(groups[a].node, groups[b].node) })
	at := 0
	for _, g := range order {
		groups[g].start = at
		at += groups[g].n
	}
	due := make([]*schedEntry, live)
	for _, e := range fired {
		if e.removed {
			continue
		}
		g := &groups[e.group]
		due[g.start] = e
		g.start++
	}
	for _, g := range order {
		es := due[groups[g].start-groups[g].n : groups[g].start]
		for len(es) > 0 {
			n := min(len(es), s.cfg.MaxBatch)
			s.queue = append(s.queue, renewJob{node: groups[g].node, entries: es[:n:n]})
			s.pending++
			es = es[n:]
		}
	}
	s.groups, s.order = groups, order
	clear(fired)
	s.fired = fired[:0]
	s.unflushed.Store(0)
	s.qcond.Broadcast()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	// Reused across jobs: the batch's live entries, its request items, their
	// results and the successes among them.
	var (
		live    []*schedEntry
		items   []BatchItem
		results []BatchResult
		renewed []Renewal
	)
	for {
		s.mu.Lock()
		for s.qhead == len(s.queue) && !s.stopped {
			s.qcond.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		job := s.queue[s.qhead]
		s.queue[s.qhead] = renewJob{}
		s.qhead++
		if s.qhead == len(s.queue) {
			s.queue, s.qhead = s.queue[:0], 0
		}
		// Drop entries cancelled while queued; the batch carries only leases
		// still tracked at dispatch time.
		live, items = live[:0], items[:0]
		for _, e := range job.entries {
			if !e.removed {
				live = append(live, e)
				items = append(items, BatchItem{ID: e.id, Name: e.name})
			}
		}
		s.mu.Unlock()

		results = slices.Grow(results[:0], len(items))[:len(items)]
		clear(results)
		var callErr error
		if len(items) > 0 {
			callErr = s.cfg.Renew(job.node, items, results)
		}
		renewed = s.settle(job.node, live, results, callErr, renewed[:0])

		s.mu.Lock()
		s.pending--
		s.mu.Unlock()
	}
}

// settle applies one renew call's outcome: successes re-arm at
// granted*fraction, failures retry across the slack, exhausted retries drop
// the lease and report the node failed (once per call). Successes are
// appended to renewed, which is returned for reuse.
func (s *Scheduler) settle(node string, live []*schedEntry, results []BatchResult, callErr error, renewed []Renewal) []Renewal {
	var failErr error
	s.mu.Lock()
	for i, e := range live {
		if e.removed {
			continue // cancelled while the call was in flight
		}
		rerr := callErr
		if callErr == nil {
			if results[i].ID != e.id {
				rerr = fmt.Errorf("lease: batch renew of %s: no result for %s", node, e.id)
			} else if rerr = results[i].Err; rerr == nil {
				granted := results[i].Granted
				if granted <= 0 {
					granted = e.granted
				}
				e.granted = granted
				e.attempts = 0
				s.m.renews.Inc()
				e.timer.Reset(time.Duration(float64(granted) * s.cfg.Fraction))
				renewed = append(renewed, Renewal{BatchItem: BatchItem{ID: e.id, Name: e.name}, Granted: granted})
				continue
			}
		}
		if e.attempts < s.cfg.Retries {
			// Space the retries across the slack remaining before expiry.
			e.attempts++
			s.m.retries.Inc()
			slack := time.Duration(float64(e.granted) * (1 - s.cfg.Fraction))
			gap := slack / time.Duration(s.cfg.Retries+1)
			if gap <= 0 {
				gap = time.Millisecond
			}
			e.timer.Reset(gap)
			continue
		}
		s.m.failures.Inc()
		s.removeLocked(e)
		if failErr == nil {
			failErr = rerr
		}
	}
	s.gaugeLocked()
	s.mu.Unlock()

	if len(renewed) > 0 && s.cfg.OnRenew != nil {
		s.cfg.OnRenew(node, renewed)
	}
	if failErr != nil && s.cfg.OnNodeFail != nil {
		s.cfg.OnNodeFail(node, failErr)
	}
	return renewed
}
