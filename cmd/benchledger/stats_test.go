package main

import (
	"io"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSummarizePicksTailWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		tailQ float64
	}{
		{5, 0},       // too small for any tail
		{19, 0},      // p50 would leave 9.5 beyond
		{20, 0.50},   // exactly ten beyond the median
		{99, 0.75},   // p90 would leave 9.9
		{100, 0.90},  // exactly ten beyond p90
		{1000, 0.99}, // exactly ten beyond p99
		{9999, 0.99}, // p99.9 would leave 9.999
		{10000, 0.999},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // reverse order: summarize must sort
		}
		s := summarize(xs)
		if s.N != tc.n || s.TailQ != tc.tailQ {
			t.Errorf("n=%d: got N=%d tail p%g, want tail p%g", tc.n, s.N, 100*s.TailQ, 100*tc.tailQ)
		}
		if want := float64(tc.n+1) / 2; s.P50 != want {
			t.Errorf("n=%d: median %g, want %g", tc.n, s.P50, want)
		}
		if tc.tailQ > 0 {
			beyond := 0
			for _, x := range xs {
				if x > s.Tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond the reported p%g", tc.n, beyond, 100*s.TailQ)
			}
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	for q, want := range map[float64]float64{0: 10, 0.5: 25, 0.9: 37, 1: 40} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints, which is how the spread of repeated runs is checked.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
		{[]float64{10.5, 2.25, 7.0, 1.0}, [3]float64{1.3125, 4.625, 9.625}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || math.Abs(q1-tc.want[0]) > 1e-9 || math.Abs(q2-tc.want[1]) > 1e-9 || math.Abs(q3-tc.want[2]) > 1e-9 {
			t.Errorf("quartiles(%v) = %g %g %g (ok=%v), want %v", tc.xs, q1, q2, q3, ok, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should report !ok")
	}
}

// A counted budget admits exactly its operations however many goroutines
// share it; a timed one admits one operation even past its deadline.
func TestBudget(t *testing.T) {
	b := &budget{ops: 1000}
	var wg sync.WaitGroup
	var ran atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b.next() {
				ran.Add(1)
			}
		}()
	}
	wg.Wait()
	if ran.Load() != 1000 {
		t.Errorf("counted budget ran %d operations, want 1000", ran.Load())
	}
	late := &budget{until: now().Add(-time.Second)}
	if !late.next() || late.next() {
		t.Error("a timed budget past its deadline should admit exactly one operation")
	}
}

// fixedBench is a bench whose every operation takes lat by its own account.
type fixedBench struct{ lat time.Duration }

func (f fixedBench) run(b *budget) phase {
	var p phase
	for b.next() {
		time.Sleep(time.Millisecond)
		p.attempted++
		p.ok(f.lat)
	}
	return p
}
func (fixedBench) report(io.Writer) {}
func (fixedBench) close()           {}

// Every operation is converted with its own slice's factor, and the quiet
// wall time is the slices' measured time converted the same way.
func TestDriveConvertsEachSliceByItsProbes(t *testing.T) {
	probe, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer probe.close()
	r := drive(fixedBench{lat: time.Millisecond}, probe, newRecorder(), 3*probeEvery)
	if len(r.factors) < 3 {
		t.Fatalf("%d slices for three slice lengths", len(r.factors))
	}
	if r.all.attempted != len(r.all.ops) || len(r.plain.ops)+len(r.traced.ops) != len(r.all.ops) || len(r.traced.ops) == 0 {
		t.Fatalf("ops: all %d (attempted %d), plain %d, traced %d", len(r.all.ops), r.all.attempted, len(r.plain.ops), len(r.traced.ops))
	}
	seen := make(map[float64]bool)
	for _, o := range r.all.ops {
		seen[o.quiet/o.lat] = true
	}
	for f := range seen {
		found := false
		for _, g := range r.factors {
			found = found || math.Abs(f-g) < 1e-9
		}
		if !found {
			t.Errorf("an operation was converted by %g, which is no slice's factor %v", f, r.factors)
		}
	}
	var lo, hi float64 = math.Inf(1), 0
	for _, f := range r.factors {
		lo, hi = math.Min(lo, f), math.Max(hi, f)
	}
	if q := r.quietSeconds / r.rawSeconds; q < lo-1e-9 || q > hi+1e-9 {
		t.Errorf("quiet/raw time %g lies outside the slice factors [%g, %g]", q, lo, hi)
	}
}
