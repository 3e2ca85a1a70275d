package overload

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/testutil"
	"repro/internal/transport"
)

var t0 = time.Date(2003, 9, 1, 0, 0, 0, 0, time.UTC)

// TestLimiterPriorityOrder proves the strict keepalive > mutation > read
// grant order: with one slot held and one waiter queued per class (enqueued
// lowest-priority first), releases grant in class order, not arrival order.
func TestLimiterPriorityOrder(t *testing.T) {
	clk := clock.NewManual(t0)
	lim := NewLimiter(Config{InitialLimit: 1, MinLimit: 1, MaxLimit: 1, Clock: clk})
	if err := lim.Acquire(context.Background(), ClassRead); err != nil {
		t.Fatalf("initial acquire: %v", err)
	}
	order := make(chan Class, 3)
	var wg sync.WaitGroup
	for _, c := range []Class{ClassRead, ClassMutation, ClassKeepalive} {
		c := c
		before := lim.Snapshot().Queued
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := lim.Acquire(context.Background(), c); err != nil {
				t.Errorf("acquire %v: %v", c, err)
				return
			}
			order <- c
			lim.Release()
		}()
		testutil.WaitFor(t, "waiter queued", func() bool { return lim.Snapshot().Queued == before+1 })
	}
	lim.Release()
	wg.Wait()
	got := []Class{<-order, <-order, <-order}
	want := []Class{ClassKeepalive, ClassMutation, ClassRead}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
}

// TestLimiterQueueShed proves a bounded queue sheds its overflow with the
// overload sentinel and the configured retry-after hint.
func TestLimiterQueueShed(t *testing.T) {
	clk := clock.NewManual(t0)
	lim := NewLimiter(Config{
		InitialLimit: 1, MinLimit: 1, MaxLimit: 1,
		QueueDepth: 1, RetryAfter: 250 * time.Millisecond, Clock: clk,
	})
	if err := lim.Acquire(context.Background(), ClassRead); err != nil {
		t.Fatalf("initial acquire: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := lim.Acquire(context.Background(), ClassRead); err != nil {
			t.Errorf("queued acquire: %v", err)
			return
		}
		lim.Release()
	}()
	testutil.WaitFor(t, "waiter queued", func() bool { return lim.Snapshot().Queued == 1 })

	err := lim.Acquire(context.Background(), ClassRead)
	if !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("overflow error = %v, want ErrOverloaded", err)
	}
	hint, ok := transport.RetryAfterHint(err)
	if !ok || hint != 250*time.Millisecond {
		t.Fatalf("hint = %v, %v; want 250ms, true", hint, ok)
	}
	if s := lim.Snapshot(); s.ShedRead != 1 || s.Sheds() != 1 {
		t.Fatalf("snapshot after shed: %+v", s)
	}
	lim.Release()
	wg.Wait()
}

// TestLimiterAIMD drives the controller through both branches on a manual
// clock: an interval whose best admission was instant raises the limit by
// one, an interval whose best admission still waited past Target halves it.
func TestLimiterAIMD(t *testing.T) {
	clk := clock.NewManual(t0)
	lim := NewLimiter(Config{
		InitialLimit: 2, MinLimit: 1, MaxLimit: 8,
		Interval: 100 * time.Millisecond, Target: 5 * time.Millisecond,
		QueueDepth: 10, Clock: clk,
	})
	reg := metrics.New()
	lim.Instrument(reg)

	// Two fast-path admissions at t0 observe zero queue delay.
	for i := 0; i < 2; i++ {
		if err := lim.Acquire(context.Background(), ClassRead); err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	// Two waiters queue behind them.
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := lim.Acquire(context.Background(), ClassRead); err != nil {
				t.Errorf("queued acquire: %v", err)
				return
			}
			<-release
			lim.Release()
		}()
	}
	testutil.WaitFor(t, "two queued", func() bool { return lim.Snapshot().Queued == 2 })

	// Interval 1 closes with min delay 0 → additive increase, and the raised
	// limit pumps both waiters, each having queued 120ms.
	clk.Advance(120 * time.Millisecond)
	lim.Release()
	testutil.WaitFor(t, "waiters granted", func() bool { return lim.Snapshot().Queued == 0 })
	if s := lim.Snapshot(); s.Limit != 3 {
		t.Fatalf("limit after uncongested interval = %d, want 3", s.Limit)
	}

	// Interval 2 closes with min delay 120ms > target → multiplicative
	// decrease.
	clk.Advance(120 * time.Millisecond)
	lim.Release()
	if s := lim.Snapshot(); s.Limit != 1 {
		t.Fatalf("limit after congested interval = %d, want 1", s.Limit)
	}
	if g := testutil.Gauge(reg, "overload.limit"); g != 1 {
		t.Fatalf("overload.limit gauge = %d, want 1", g)
	}
	close(release)
	wg.Wait()
	if s := lim.Snapshot(); s.Inflight != 0 {
		t.Fatalf("inflight after drain = %d, want 0", s.Inflight)
	}
}

// TestLimiterExpiredBeforeAdmission proves a request that arrives already
// past its deadline is dropped without consuming a slot.
func TestLimiterExpiredBeforeAdmission(t *testing.T) {
	lim := NewLimiter(Config{Clock: clock.NewManual(t0)})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := lim.Acquire(ctx, ClassKeepalive)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := lim.Snapshot(); s.ExpiredDrops != 1 || s.Inflight != 0 || s.Admitted != 0 {
		t.Fatalf("snapshot: %+v", s)
	}
}

// TestLimiterExpiredInQueue proves a waiter whose context dies while queued
// is unlinked and counted, and the queue keeps flowing afterwards.
func TestLimiterExpiredInQueue(t *testing.T) {
	clk := clock.NewManual(t0)
	lim := NewLimiter(Config{InitialLimit: 1, MinLimit: 1, MaxLimit: 1, Clock: clk})
	if err := lim.Acquire(context.Background(), ClassRead); err != nil {
		t.Fatalf("initial acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- lim.Acquire(ctx, ClassRead) }()
	testutil.WaitFor(t, "waiter queued", func() bool { return lim.Snapshot().Queued == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued err = %v, want context.Canceled", err)
	}
	if s := lim.Snapshot(); s.ExpiredDrops != 1 || s.Queued != 0 {
		t.Fatalf("snapshot: %+v", s)
	}
	lim.Release()
	if err := lim.Acquire(context.Background(), ClassRead); err != nil {
		t.Fatalf("post-expiry acquire: %v", err)
	}
	lim.Release()
}

// TestClassify pins the method→class table and the unknown-method default.
func TestClassify(t *testing.T) {
	cases := map[string]Class{
		"midas.renewBatch": ClassKeepalive,
		"midas.renew":      ClassKeepalive,
		"midas.inventory":  ClassKeepalive,
		"lookup.renew":     ClassKeepalive,
		"midas.applyBatch": ClassMutation,
		"base.post":        ClassMutation,
		"lookup.register":  ClassMutation,
		"svc.invoke":       ClassMutation,
		"ops":              ClassRead,
		"lookup.find":      ClassRead,
		"no.such.method":   ClassMutation, // unknown defaults to the middle band
	}
	for m, want := range cases {
		if got := Classify(m); got != want {
			t.Errorf("Classify(%q) = %v, want %v", m, got, want)
		}
	}
}

// TestBucketsDeterministic proves per-peer token buckets are exact on a
// manual clock — the same call sequence always yields the same admits, sheds
// and hints — and that ungoverned methods and anonymous peers pass freely.
func TestBucketsDeterministic(t *testing.T) {
	run := func() (sheds uint64, hints []time.Duration) {
		clk := clock.NewManual(t0)
		b := NewBuckets(BucketConfig{Rate: 1, Burst: 2, Methods: []string{"ops"}, Clock: clk})
		step := func(peer, method string, wantOK bool) {
			t.Helper()
			retry, ok := b.Admit(peer, method)
			if ok != wantOK {
				t.Fatalf("Admit(%s, %s) ok = %v, want %v", peer, method, ok, wantOK)
			}
			if !ok {
				hints = append(hints, retry)
			}
		}
		step("n1", "ops", true)         // burst token 1
		step("n1", "ops", true)         // burst token 2
		step("n1", "ops", false)        // empty → shed, ~1s to next token
		step("n1", "lookup.find", true) // ungoverned method passes
		step("", "ops", true)           // anonymous peer passes
		step("n2", "ops", true)         // other peer has its own bucket
		clk.Advance(time.Second)
		step("n1", "ops", true) // refilled exactly one token
		step("n1", "ops", false)
		return b.Sheds(), hints
	}
	sheds1, hints1 := run()
	sheds2, hints2 := run()
	if sheds1 != 2 || sheds2 != 2 {
		t.Fatalf("sheds = %d, %d; want 2, 2", sheds1, sheds2)
	}
	if len(hints1) != 2 || hints1[0] != time.Second || hints1[0] != hints2[0] || hints1[1] != hints2[1] {
		t.Fatalf("hints = %v vs %v", hints1, hints2)
	}
}

// TestBucketsNilSafe proves the disabled configuration (no governed methods)
// returns a nil set that admits everything.
func TestBucketsNilSafe(t *testing.T) {
	b := NewBuckets(BucketConfig{})
	if b != nil {
		t.Fatalf("NewBuckets with no methods = %v, want nil", b)
	}
	if _, ok := b.Admit("n1", "ops"); !ok {
		t.Fatal("nil Buckets must admit")
	}
	if b.Sheds() != 0 || b.Peers() != 0 {
		t.Fatal("nil Buckets counters must be zero")
	}
}
