package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a summary may report as its tail, in
// thousandths, highest first. A summary reports the highest one that still
// leaves at least minBeyond samples above it, so a tail is never read off a
// handful of points.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

const minBeyond = 10

// summary is how the ledger reports one timing sample: its size, its median
// and the highest percentile with at least minBeyond samples beyond it.
type summary struct {
	N     int
	P50   float64
	TailQ float64 // 0 when the sample is too small for any tail
	Tail  float64
}

func (s summary) String() string {
	if s.TailQ == 0 {
		return fmt.Sprintf("p50=%.4g n=%d (too few samples for a tail)", s.P50, s.N)
	}
	return fmt.Sprintf("p50=%.4g p%g=%.4g n=%d", s.P50, s.TailQ*100, s.Tail, s.N)
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	s := summary{N: len(xs), P50: quantile(xs, 0.5)}
	for _, q := range tailLadder {
		if len(xs)*(1000-q) >= minBeyond*1000 {
			s.TailQ = float64(q) / 1000
			s.Tail = quantile(xs, s.TailQ)
			break
		}
	}
	return s
}

// quantile returns the q-quantile of sorted by linear interpolation between
// the two nearest ranks; NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed by compare match an external check. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := len(d) + 1
	var cut [3]float64
	for i := 1; i <= 3; i++ {
		// Clamp like Python does for tiny samples (j ranges over 1..n-1),
		// then interpolate with the clamped index.
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		cut[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut[0], cut[1], cut[2], true
}

// opSample is one operation whose output checked out: how long it took (ns)
// and that time converted to a quiet host (see probe.go).
type opSample struct {
	lat, quiet float64
}
