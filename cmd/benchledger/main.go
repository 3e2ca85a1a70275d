// Command benchledger is the repository benchmark. It assembles the real
// platform — base, receivers, services, weaver, sandbox and JIT — through its
// public APIs, drives one seeded workload for a fixed time, checks every
// operation's output, and prints each metric by name with its unit. The last
// line of standard output is one JSON result object.
//
//	bash cmd/benchledger/run.sh --workload adapted_call --seed 1 --seconds 10 --trace 0
//	bash cmd/benchledger/run.sh compare a.jsonl b.jsonl
//
// With --trace 1 the run alternates untraced and traced phases, times the
// calls into each layer from this package's wrappers, and reports the
// per-layer metrics of BENCHMARK.json instead of the end-to-end ones. See
// README.md for the workloads and the metric-to-layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	out      string
}

// fullRun is the shortest run that uses full-size inputs. Shorter runs, such
// as the smoke tests', scale set-up counts, the fleet and the isolated layer
// batches down in proportion, so they stay short.
const fullRun = 10 * time.Second

// scaled is n for a run of fullRun or longer, and in proportion for a shorter
// one, but at least 1.
func (cfg config) scaled(n int) int {
	return max(1, int(float64(n)*float64(min(cfg.measure, fullRun))/float64(fullRun)))
}

// metric is one reported value and how many samples it rests on.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run as appended to the ledger: the result plus what is
// needed to compare it with another run. Raw holds the timed end-to-end
// metrics as measured, before the quiet-host conversion (probe.go), so a
// comparison can check that the conversion did not turn a change around.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	Go         string             `json:"go"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	CPU        string             `json:"cpu"`
	Commit     string             `json:"commit"`
	Result     result             `json:"result"`
	Raw        map[string]float64 `json:"raw,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds float64
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&seconds, "seconds", 10, "measured time after set-up and warm-up")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "benchledger"), "directory for the run ledger and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "benchledger: need --workload (%s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.measure = time.Duration(seconds * float64(time.Second))
	cfg.trace = traceFlag == 1
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchledger: %v\n", err)
		return 1
	}
	res, raw, err := runWorkload(w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchledger: %s: %v\n", cfg.workload, err)
		return 1
	}
	rec := runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: seconds,
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), Commit: commit(),
		Result: res, Raw: raw,
	}
	line, err := json.Marshal(rec)
	if err == nil {
		err = appendLine(filepath.Join(cfg.out, "ledger.jsonl"), line)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchledger: ledger: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", line)
	final, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchledger: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", final)
	return 0
}

// bench is a set-up workload ready to drive.
type bench interface {
	// run executes operations while b allows and reports their latencies
	// and outcomes.
	run(b *budget) phase
	// report prints workload-specific lines (secondary timings, state)
	// and drops the samples behind them, so the next report covers only
	// the operations run after this one.
	report(w io.Writer)
	close()
}

// budget says how long a stretch of driving lasts: until a deadline, with
// at least one operation, or for exactly ops operations. Load goroutines
// may share one.
type budget struct {
	until   time.Time
	ops     int64
	started atomic.Int64
}

// next reports whether one more operation may start.
func (b *budget) next() bool {
	n := b.started.Add(1)
	if b.ops > 0 {
		return n <= b.ops
	}
	return n == 1 || now().Before(b.until)
}

// phase is what one stretch of driving produced.
type phase struct {
	ops       []opSample // operations whose output checked out
	attempted int
	failed    int // errors plus wrong outputs
	wrong     int // wrong outputs only
}

// ok records an operation that took d and checked out.
func (p *phase) ok(d time.Duration) {
	p.ops = append(p.ops, opSample{lat: float64(d)})
}

func (p *phase) add(q phase) {
	p.ops = append(p.ops, q.ops...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.wrong += q.wrong
}

// benchWorkload is one named benchmark input set.
type benchWorkload struct {
	// setups is how many times a run sets the workload up; setup_s is the
	// median, and every set-up but the last is torn down again.
	setups int
	// warmOps is how many operations the warm-up runs, about two seconds'
	// worth. It is a count, not a time, so the live heap read after it holds
	// what the same number of operations left behind on any host.
	warmOps int
	// tail is the quantile op_tail_us reports, the one that repeats best
	// between runs: p90, except p99 on adapted_call, whose p90 falls on the
	// edge of its slow calls (README.md).
	tail  float64
	setup func(cfg config, rec *recorder) (bench, error)
}

var workloads = map[string]benchWorkload{
	"adapted_call":   {setups: 15, warmOps: 15000, tail: 0.99, setup: setupAdaptedCall},
	"renew_fleet":    {setups: 5, warmOps: 100, tail: 0.90, setup: setupRenewFleet},
	"policy_rollout": {setups: 15, warmOps: 5000, tail: 0.90, setup: setupPolicyRollout},
	"app_woven":      {setups: 15, warmOps: 7000, tail: 0.90, setup: setupAppWoven},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload sets w up, warms it up and measures it. It returns the result
// and, untraced, the timed end-to-end metrics as measured.
func runWorkload(w benchWorkload, cfg config, out io.Writer) (result, map[string]float64, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	probe, err := newHostProbe()
	if err != nil {
		return result{}, nil, err
	}
	defer probe.close()
	var b bench
	setups := cfg.scaled(w.setups)
	setupRaw := make([]float64, 0, setups)
	setupS := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		_, before := probe.measure()
		t0 := now()
		nb, err := w.setup(cfg, rec)
		if err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		d := since(t0)
		_, after := probe.measure()
		setupRaw = append(setupRaw, d.Seconds())
		setupS = append(setupS, d.Seconds()*factor(before, after))
		b = nb
	}
	defer b.close()
	setup, setupAsMeasured := summarize(setupS), summarize(setupRaw)
	fmt.Fprintf(out, "setup %s s on a quiet host (raw %s s)\n", setup, setupAsMeasured)
	setupHeap := liveHeapMB()

	// Warm-up operations count in attempted and failed like measured ones, so
	// no failure goes unreported; only their timings are dropped. The live
	// heap after them is set-up's plus what they left behind.
	warm := b.run(&budget{ops: int64(cfg.scaled(w.warmOps))})
	warm.ops = nil
	b.report(io.Discard)
	heap := liveHeapMB()
	fmt.Fprintf(out, "live heap %.4g MB after set-up, %.4g MB after %d warm-up operations (%.4g bytes retained per operation)\n",
		setupHeap, heap, warm.attempted, (heap-setupHeap)*(1<<20)/float64(warm.attempted))

	if cfg.trace {
		res, err := runTraced(b, rec, probe, cfg, warm, out)
		return res, nil, err
	}
	ms, raw, total := measureEndToEnd(b, probe, w, cfg, out)
	ms["setup_s"] = metric{setup.P50, "s", setup.N}
	raw["setup_s"] = setupAsMeasured.P50
	ms["live_heap_mb"] = metric{heap, "MB", 1}
	total.add(warm)
	// The samples are gone by now, so this is the system's own heap.
	fmt.Fprintf(out, "live heap %.4g MB at the end of the run, after %d operations\n", liveHeapMB(), total.attempted)
	return finish(out, total, ms), raw, nil
}

// e2eBlocks is how many equal blocks the measured time is split into. Each
// timed end-to-end metric is the median of its values in the blocks, so a
// host stall of a second or two, which the reference kernel catches only in
// part, moves one block and not the result.
const e2eBlocks = 5

// The timed end-to-end metrics, in the order blockMetrics gives them.
var (
	timedNames = [3]string{"op_p50_us", "op_tail_us", "ops_per_s"}
	timedUnits = [3]string{"us", "us", "1/s"}
)

// blockMetrics appends one block's timed metrics, from its sorted latencies
// (ns), its operation count and its length, to into.
func blockMetrics(into *[3][]float64, lat []float64, tail float64, n int, seconds float64) {
	into[0] = append(into[0], quantile(lat, 0.5)/1e3)
	into[1] = append(into[1], quantile(lat, tail)/1e3)
	into[2] = append(into[2], float64(n)/seconds)
}

// measureEndToEnd drives b for cfg.measure and returns the timed end-to-end
// metrics on a quiet host and as measured, and the operation counts without
// their samples.
func measureEndToEnd(b bench, probe *hostProbe, w benchWorkload, cfg config, out io.Writer) (map[string]metric, map[string]float64, phase) {
	var quiet, raw [3][]float64
	var total phase
	fewest := -1
	for k := 1; k <= e2eBlocks; k++ {
		r := drive(b, probe, nil, cfg.measure/e2eBlocks)
		fmt.Fprintf(out, "block %d of %d:\n", k, e2eBlocks)
		r.print(out)
		n := len(r.all.ops)
		blockMetrics(&quiet, latencies(r.all.ops, true), w.tail, n, r.quietSeconds)
		blockMetrics(&raw, latencies(r.all.ops, false), w.tail, n, r.rawSeconds)
		if fewest < 0 || n < fewest {
			fewest = n
		}
		r.all.ops = nil
		total.add(r.all)
	}
	b.report(out)
	fmt.Fprintf(out, "op_tail_us is the median of the blocks' p%g latencies, each with at least %.0f samples beyond it\n",
		100*w.tail, float64(fewest)*(1-w.tail))
	ms := make(map[string]metric, len(timedNames))
	asMeasured := make(map[string]float64, len(timedNames))
	for i, name := range timedNames {
		ms[name] = metric{summarize(quiet[i]).P50, timedUnits[i], total.attempted - total.failed}
		asMeasured[name] = summarize(raw[i]).P50
	}
	return ms, asMeasured, total
}

// driven is a measured stretch of a workload: all its operations, split
// into those of untraced and traced slices.
type driven struct {
	all, plain, traced phase
	// factors holds each slice's quiet-host factor; quietSeconds and
	// rawSeconds are the slices' wall time converted and as measured.
	factors                  []float64
	quietSeconds, rawSeconds float64
}

// drive runs b for d in probed slices and converts every operation's latency
// to quiet-host time with its slice's factor. A slice's wall time lasts until
// the probe after it finds the process settled, so it includes the rest of a
// GC cycle the slice started. With a recorder, every other slice is traced,
// and the spans of each slice are converted with its factor.
func drive(b bench, probe *hostProbe, rec *recorder, d time.Duration) driven {
	var r driven
	_, before := probe.measure()
	t0 := now()
	for i := 0; i == 0 || since(t0) < d; i++ {
		on := rec != nil && i%2 == 1
		if rec != nil {
			rec.on.Store(on)
		}
		s0 := now()
		p := b.run(&budget{until: s0.Add(min(probeEvery, d))})
		if rec != nil {
			rec.on.Store(false)
		}
		settled, after := probe.measure()
		wall := settled.Sub(s0)
		f := factor(before, after)
		rec.flush(f)
		r.factors = append(r.factors, f)
		r.quietSeconds += wall.Seconds() * f
		r.rawSeconds += wall.Seconds()
		for j := range p.ops {
			p.ops[j].quiet = p.ops[j].lat * f
		}
		if on {
			r.traced.add(p)
		} else {
			r.plain.add(p)
		}
		r.all.add(p)
		before = after
	}
	return r
}

// latencies returns the sorted latencies of ops, converted to quiet-host time
// or as measured.
func latencies(ops []opSample, quiet bool) []float64 {
	lat := make([]float64, len(ops))
	for i, o := range ops {
		lat[i] = o.lat
		if quiet {
			lat[i] = o.quiet
		}
	}
	sort.Float64s(lat)
	return lat
}

// print reports the stretch's latencies, quiet-host and raw, and how much
// the host slowed the reference kernel.
func (r *driven) print(out io.Writer) {
	n := float64(len(r.all.ops))
	fmt.Fprintf(out, "latency on a quiet host %s ns; %.4g ops/s\n", summarize(latencies(r.all.ops, true)), n/r.quietSeconds)
	fmt.Fprintf(out, "latency as measured %s ns; %.4g ops/s\n", summarize(latencies(r.all.ops, false)), n/r.rawSeconds)
	slow := make([]float64, len(r.factors))
	for i, f := range r.factors {
		slow[i] = 1 / f
	}
	fmt.Fprintf(out, "host slowdown per %s slice (reference kernel time / its quiet time) %s\n", probeEvery, summarize(slow))
}

// runTraced measures the isolated layer costs, then alternates untraced and
// traced slices of the workload for cfg.measure. warm holds the warm-up's
// operation counts.
func runTraced(b bench, rec *recorder, probe *hostProbe, cfg config, warm phase, out io.Writer) (result, error) {
	ms, err := measureLayers(cfg, probe)
	if err != nil {
		return result{}, fmt.Errorf("layers: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := drive(b, probe, rec, cfg.measure)
	runtime.ReadMemStats(&after)
	ops := float64(r.all.attempted)
	pl, tr := summarize(latencies(r.plain.ops, true)), summarize(latencies(r.traced.ops, true))
	r.print(out)
	fmt.Fprintf(out, "untraced latency on a quiet host %s ns\n", pl)
	fmt.Fprintf(out, "traced latency on a quiet host %s ns\n", tr)
	overhead := tr.P50 / pl.P50
	fmt.Fprintf(out, "tracing overhead %.4g ns per operation at p50 (traced/untraced %.4f)\n", tr.P50-pl.P50, overhead)

	opsTraced := float64(rec.ops.Load())
	layers, self := rec.layerStats()
	for _, l := range layers {
		fmt.Fprintf(out, "span %-40s calls/op=%-10.4g ns/call=%-10.4g ns/op=%.4g (quiet host)\n",
			l.name, float64(l.calls)/opsTraced, l.quietNs/float64(l.calls), l.quietNs/opsTraced)
	}
	b.report(out)
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := rec.writeSpans(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	n, dropped := rec.kept()
	fmt.Fprintf(out, "%d spans written to %s (%d dropped past the cap)\n", n, path, dropped)

	nOps, nTraced := r.all.attempted, int(opsTraced)
	ms["trace.overhead_ratio"] = metric{overhead, "ratio", len(r.all.ops)}
	ms["op.self_ns"] = metric{self / opsTraced, "ns", nTraced}
	ms["op.spans"] = metric{float64(rec.calls.Load()) / opsTraced, "count", nTraced}
	ms["gc.pause_ns"] = metric{float64(after.PauseTotalNs-before.PauseTotalNs) * r.quietSeconds / r.rawSeconds / ops, "ns", nOps}
	ms["gc.cycles_per_kop"] = metric{float64(after.NumGC-before.NumGC) * 1000 / ops, "count", nOps}
	ms["alloc.bytes"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / ops, "B", nOps}
	ms["alloc.objects"] = metric{float64(after.Mallocs-before.Mallocs) / ops, "count", nOps}
	total := r.all
	total.add(warm)
	return finish(out, total, ms), nil
}

// finish prints every metric with its sample count and the check outcome,
// and builds the result. p's counts include the warm-up's. The result is
// correct when no operation returned a wrong output; operations that failed
// with an error count in failed only.
func finish(out io.Writer, p phase, ms map[string]metric) result {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "metric %-34s %-14.6g %s (n=%d)\n", name, ms[name].Value, ms[name].Unit, ms[name].n)
	}
	fmt.Fprintf(out, "check %d operations attempted (warm-up included), %d failed, %d of them with wrong outputs\n", p.attempted, p.failed, p.wrong)
	return result{Correct: p.wrong == 0, Attempted: p.attempted, Failed: p.failed, Metrics: ms}
}

// liveHeapMB is the live heap (bytes of reachable objects) after forced
// collections: two, because sync.Pool contents survive the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func now() time.Time                  { return time.Now() }    //lint:allow clockcheck (benchmark timing)
func since(t time.Time) time.Duration { return time.Since(t) } //lint:allow clockcheck (benchmark timing)

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
