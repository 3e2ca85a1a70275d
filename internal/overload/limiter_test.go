package overload

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/testutil"
	"repro/internal/transport"
)

var t0 = time.Date(2003, 9, 1, 0, 0, 0, 0, time.UTC)

// TestLimiterPriorityOrder proves the strict keepalive > mutation > read
// grant order: with one slot held and one waiter queued per class (enqueued
// lowest-priority first), releases grant in class order, not arrival order.
func TestLimiterPriorityOrder(t *testing.T) {
	lim := NewLimiter(Config{Limit: 1})
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
	lim := NewLimiter(Config{Limit: 1, QueueDepth: 1, RetryAfter: 250 * time.Millisecond})
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

// stalledStore stands in for a base station whose movement store has
// stalled: base.post blocks until release closes, and every other method is
// answered at once. It counts the lookup.renew calls it ran.
type stalledStore struct {
	release chan struct{}
	renews  atomic.Int64
}

func (h *stalledStore) Handle(ctx context.Context, method string, body []byte) ([]byte, error) {
	switch method {
	case "base.post":
		<-h.release
	case "lookup.renew":
		h.renews.Add(1)
	}
	return nil, nil
}

// TestRenewalStormBehindStalledStore is the gate for the shipped cap: with 64
// posts held by a stalled store, a storm of 200 lookup renewals arriving
// behind them must land in full, none shed. A cap that had shrunk to the
// posts it holds would queue the storm behind them and overflow the
// keepalive queue.
func TestRenewalStormBehindStalledStore(t *testing.T) {
	const posts, renews = 64, 200
	inner := &stalledStore{release: make(chan struct{})}
	lim := NewLimiter(Config{})
	h := Wrap(inner, lim, nil, nil)
	call := func(method string) error {
		_, err := h.Handle(context.Background(), method, nil)
		return err
	}

	var wg sync.WaitGroup
	for i := 0; i < posts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := call("base.post"); err != nil {
				t.Errorf("post: %v", err)
			}
		}()
	}
	testutil.WaitFor(t, "posts held", func() bool {
		s := lim.Snapshot()
		return s.Inflight+s.Queued == posts
	})

	queuedBefore := lim.Snapshot().Queued
	errs := make(chan error, renews)
	for i := 0; i < renews; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- call("lookup.renew")
		}()
	}
	testutil.WaitFor(t, "storm landed, shed or queued", func() bool {
		s := lim.Snapshot()
		return int(inner.renews.Load())+int(s.ShedKeepalive)+s.Queued-queuedBefore == renews
	})
	snap := lim.Snapshot()
	close(inner.release)
	wg.Wait()
	close(errs)

	landed, shed := 0, 0
	for err := range errs {
		switch {
		case err == nil:
			landed++
		case errors.Is(err, transport.ErrOverloaded):
			shed++
		default:
			t.Errorf("renew: %v", err)
		}
	}
	if landed != renews || shed != 0 {
		t.Fatalf("renewals landed %d, shed %d; want %d, 0 (limiter during the storm: %+v)", landed, shed, renews, snap)
	}
}

// TestLimiterExpiredBeforeAdmission proves a request that arrives already
// past its deadline is dropped without consuming a slot.
func TestLimiterExpiredBeforeAdmission(t *testing.T) {
	lim := NewLimiter(Config{})
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
	lim := NewLimiter(Config{Limit: 1})
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
		"lookup.renew":      ClassKeepalive,
		"lookup.renewWatch": ClassKeepalive,
		"base.post":         ClassMutation,
		"lookup.register":   ClassMutation,
		"ops":               ClassRead,
		"lookup.find":       ClassRead,
		"midas.renewBatch":  ClassMutation, // a node's method: the front never serves it
		"no.such.method":    ClassMutation, // unknown defaults to the middle band
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
