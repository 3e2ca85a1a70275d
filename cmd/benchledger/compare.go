package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareMain compares two ledgers (run records, one JSON object per line)
// metric by metric and workload by workload: each side's median and
// quartiles, its spread (interquartile distance over the median), and the
// change from a to b. A metric with a bound is within it when both spreads
// are and b's median is not worse than a's by more than the bound. For the
// timed metrics it also prints the change as measured, before the quiet-host
// conversion, and marks a metric whose raw change exceeds the raw runs'
// spread but points the other way from the quiet-host change: the conversion
// may then have hidden, or made up, a change.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchledger compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration with the metrics' directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchledger compare [-bench BENCHMARK.json] a.jsonl b.jsonl")
		return 2
	}
	var spec benchSpec
	raw, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchledger compare: %s: %v\n", *specPath, err)
		return 1
	}
	a, err := readLedger(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchledger compare: %v\n", err)
		return 1
	}
	b, err := readLedger(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchledger compare: %v\n", err)
		return 1
	}
	out, disagree := 0, 0
	fmt.Fprintf(stdout, "%-15s %-32s %6s %12s %12s %7s %12s %12s %7s %8s %8s %7s  %s\n",
		"workload", "metric", "runs", "a.median", "a.iqr", "a.sprd", "b.median", "b.iqr", "b.sprd", "change", "raw.chg", "bound", "verdict")
	for _, w := range workloadNames() {
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			av, bv := a.quiet[w][m.Name], b.quiet[w][m.Name]
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			ra, rb := describe(av), describe(bv)
			change := worsening(m, ra.median, rb.median)
			rawChange, rawNoise := math.NaN(), math.NaN()
			if xa, xb := a.raw[w][m.Name], b.raw[w][m.Name]; len(xa) > 0 && len(xb) > 0 {
				da, db := describe(xa), describe(xb)
				rawChange, rawNoise = worsening(m, da.median, db.median), math.Max(da.spread, db.spread)
			}
			verdict := "no bound"
			if m.Bound > 0 {
				verdict = "within bound"
				// setup_s is exempt from the spread rule: a run sets up only a
				// few times.
				spreadOK := m.Name == "setup_s" || (ra.spread <= m.Bound && rb.spread <= m.Bound)
				if !(change <= m.Bound) || !spreadOK {
					verdict = "OUT OF BOUND"
					out++
				}
			}
			if change*rawChange < 0 && math.Abs(rawChange) > rawNoise {
				verdict += "; raw change disagrees"
				disagree++
			}
			fmt.Fprintf(stdout, "%-15s %-32s %3d/%-2d %12.6g %12.6g %6.2f%% %12.6g %12.6g %6.2f%% %+7.2f%% %+7.2f%% %6.0f%%  %s\n",
				w, m.Name, len(av), len(bv), ra.median, ra.iqr, 100*ra.spread, rb.median, rb.iqr, 100*rb.spread,
				100*change, 100*rawChange, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "%d metric(s) out of bound, %d with a raw change beyond the raw spread against the quiet-host change (change is positive when b is worse)\n", out, disagree)
	if out > 0 {
		return 1
	}
	return 0
}

// worsening is how much worse b is than a, as a share of a: positive when
// m got worse.
func worsening(m metricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

type described struct {
	median, iqr, spread float64
}

func describe(xs []float64) described {
	q1, q2, q3, ok := quartiles(xs)
	if !ok {
		if len(xs) == 1 {
			return described{median: xs[0]}
		}
		return described{median: math.NaN(), iqr: math.NaN(), spread: math.NaN()}
	}
	return described{median: q2, iqr: q3 - q1, spread: (q3 - q1) / q2}
}

// values groups metric values by workload and metric name.
type values map[string]map[string][]float64

func (v values) add(workload, name string, x float64) {
	if v[workload] == nil {
		v[workload] = make(map[string][]float64)
	}
	v[workload][name] = append(v[workload][name], x)
}

// ledger is a ledger's metric values as reported and, for the timed
// end-to-end metrics, as measured.
type ledger struct{ quiet, raw values }

func readLedger(path string) (ledger, error) {
	f, err := os.Open(path)
	if err != nil {
		return ledger{}, err
	}
	defer f.Close()
	l := ledger{quiet: values{}, raw: values{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return ledger{}, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		for name, m := range r.Result.Metrics {
			l.quiet.add(r.Workload, name, m.Value)
		}
		for name, x := range r.Raw {
			l.raw.add(r.Workload, name, x)
		}
	}
	return l, sc.Err()
}
