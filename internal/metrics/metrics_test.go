package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCounterParallelStress: N goroutines × M ops must land exactly N*M, and
// gauges must survive mixed Add traffic; this is the lock-light claim.
func TestCounterParallelStress(t *testing.T) {
	const (
		goroutines = 16
		ops        = 10_000
	)
	r := New()
	c := r.Counter("stress.counter")
	g := r.Gauge("stress.gauge")
	h := r.Histogram("stress.hist", []int64{10, 100, 1000})

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(seed + int64(j)%1500)
			}
		}(int64(i))
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*ops {
		t.Fatalf("counter: got %d, want %d", got, goroutines*ops)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge: got %d, want 0", got)
	}
	if got := h.Count(); got != goroutines*ops {
		t.Fatalf("histogram count: got %d, want %d", got, goroutines*ops)
	}
	// Same names must resolve to the same instruments.
	if r.Counter("stress.counter") != c || r.Gauge("stress.gauge") != g || r.Histogram("stress.hist", nil) != h {
		t.Fatal("get-or-create returned a different instrument for an existing name")
	}
}

// TestHistogramBucketBoundaries pins the bucket rule: v <= bound lands in
// that bucket (inclusive upper bounds), above the last bound is overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0}, {9, 0}, {10, 0}, // inclusive upper bound
		{11, 1}, {100, 1},
		{101, 2}, {1000, 2},
		{1001, 3}, {1 << 40, 3}, // overflow
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.snapshot()
	want := make([]uint64, 4)
	var sum int64
	for _, c := range cases {
		want[c.bucket]++
		sum += c.v
	}
	for i := range want {
		if s.Counts[i] != want[i] {
			t.Errorf("bucket %d: got %d, want %d (counts %v)", i, s.Counts[i], want[i], s.Counts)
		}
	}
	if s.Count != uint64(len(cases)) {
		t.Errorf("count: got %d, want %d", s.Count, len(cases))
	}
	if s.Sum != sum {
		t.Errorf("sum: got %d, want %d", s.Sum, sum)
	}
}

// TestHistogramBoundsNormalised: unsorted and duplicated bounds are sorted
// and deduplicated at construction.
func TestHistogramBoundsNormalised(t *testing.T) {
	h := NewHistogram([]int64{100, 10, 100, 1000, 10})
	want := []int64{10, 100, 1000}
	if len(h.bounds) != len(want) {
		t.Fatalf("bounds: got %v, want %v", h.bounds, want)
	}
	for i := range want {
		if h.bounds[i] != want[i] {
			t.Fatalf("bounds: got %v, want %v", h.bounds, want)
		}
	}
	if len(h.counts) != len(want)+1 {
		t.Fatalf("counts: got %d buckets, want %d", len(h.counts), len(want)+1)
	}
}

// TestSnapshotConsistencyUnderConcurrentWrites takes snapshots while writers
// are mid-flight and checks every snapshot's internal invariants: histogram
// Count equals the sum of its captured buckets, and counters are monotonic
// across successive snapshots.
func TestSnapshotConsistencyUnderConcurrentWrites(t *testing.T) {
	r := New()
	c := r.Counter("snap.counter")
	h := r.Histogram("snap.hist", []int64{1, 2, 4, 8})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int64(0); !stop.Load(); j++ {
				c.Inc()
				h.Observe(j % 10)
			}
		}()
	}

	var lastCounter, lastHist uint64
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		hs := s.Histograms["snap.hist"]
		var bucketSum uint64
		for _, n := range hs.Counts {
			bucketSum += n
		}
		if hs.Count != bucketSum {
			t.Fatalf("snapshot %d: histogram Count %d != sum of buckets %d", i, hs.Count, bucketSum)
		}
		if hs.Count < lastHist {
			t.Fatalf("snapshot %d: histogram count went backwards (%d -> %d)", i, lastHist, hs.Count)
		}
		if s.Counters["snap.counter"] < lastCounter {
			t.Fatalf("snapshot %d: counter went backwards (%d -> %d)", i, lastCounter, s.Counters["snap.counter"])
		}
		lastCounter, lastHist = s.Counters["snap.counter"], hs.Count
	}
	stop.Store(true)
	wg.Wait()

	// Quiescent: everything must line up exactly.
	s := r.Snapshot()
	if s.Counters["snap.counter"] != c.Value() {
		t.Fatalf("final counter snapshot %d != live %d", s.Counters["snap.counter"], c.Value())
	}
	if s.Histograms["snap.hist"].Count != h.Count() {
		t.Fatalf("final histogram snapshot %d != live %d", s.Histograms["snap.hist"].Count, h.Count())
	}
}

// TestNilSafety: a nil registry hands out nil instruments and every operation
// on them is a no-op — this is what an un-instrumented component relies on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	h.Since(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

// TestHTTPEndpoints drives /metrics and /healthz through real HTTP.
func TestHTTPEndpoints(t *testing.T) {
	r := New()
	r.Counter("http.requests").Add(7)
	r.Gauge("http.inflight").Set(2)
	r.Histogram("http.latency_ns", nil).Observe(5_000)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["http.requests"] != 7 || s.Gauges["http.inflight"] != 2 {
		t.Fatalf("bad snapshot over HTTP: %+v", s)
	}
	if s.Histograms["http.latency_ns"].Count != 1 {
		t.Fatalf("bad histogram over HTTP: %+v", s.Histograms)
	}

	health := NewHealth()
	health.Register("always-ok", func() error { return nil })
	hsrv := httptest.NewServer(health.Handler())
	defer hsrv.Close()
	hr, err := http.Get(hsrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || !strings.Contains(string(body), "always-ok: ok") {
		t.Fatalf("healthy /healthz: status %d body %q", hr.StatusCode, body)
	}

	health.Register("broken", func() error { return io.ErrUnexpectedEOF })
	hr, err = http.Get(hsrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "broken: unexpected EOF") {
		t.Fatalf("unhealthy /healthz: status %d body %q", hr.StatusCode, body)
	}
}

// TestServeHTTP exercises the listener and handler cmd/node and
// cmd/basestation serve.
func TestServeHTTP(t *testing.T) {
	r := New()
	r.Counter("served").Inc()
	addr, stop, err := ServeHTTP("127.0.0.1:0", NewHandler(r, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	err = json.NewDecoder(resp.Body).Decode(&s)
	resp.Body.Close()
	if err != nil || s.Counters["served"] != 1 {
		t.Fatalf("decode: %v, snapshot %+v", err, s)
	}
	hresp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", hresp.StatusCode)
	}
}

// TestWriteText checks the pretty printer midasctl uses.
func TestWriteText(t *testing.T) {
	r := New()
	r.Counter("b.counter").Add(3)
	r.Counter("a.counter").Add(1)
	r.Gauge("z.gauge").Set(-4)
	h := r.Histogram("lat", []int64{1000, 1_000_000})
	h.Observe(500)
	h.Observe(2_000_000)

	var sb strings.Builder
	WriteText(&sb, r.Snapshot())
	out := sb.String()
	if !strings.Contains(out, "a.counter") || !strings.Contains(out, "b.counter") ||
		!strings.Contains(out, "z.gauge") || !strings.Contains(out, "count=2") {
		t.Fatalf("pretty output missing entries:\n%s", out)
	}
	if strings.Index(out, "a.counter") > strings.Index(out, "b.counter") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
}
