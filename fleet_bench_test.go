// Fleet-scale benchmarks for the base station: adapt-round throughput,
// anti-entropy reconcile rounds, and the timer-wheel renewal scheduler, each
// against a fleet of lightweight in-process nodes. Besides the standard
// go-bench output, every run rewrites BENCH_fleet.json at the repo root so
// CI can archive the numbers (set BENCH_FLEET_OUT to redirect, or empty to
// skip).
//
//	go test -run '^$' -bench 'Fleet|RenewScheduler' -benchtime=1x .
package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
)

// benchFleet wires a base and n fake fleet nodes over the zero-latency
// in-process fabric, on a manual clock the benchmark drives itself.
type benchFleet struct {
	clk    *clock.Manual
	fabric *transport.InProc
	base   *core.Base
	reg    *metrics.Registry
	names  []string
}

// newBenchFleet wires the fleet; observed additionally turns the node side of
// the observability plane on — RED instruments and piggyback reporting on
// every node — so the observed benchmarks price exactly what a fully
// instrumented deployment pays.
func newBenchFleet(b *testing.B, nNodes int, observed bool) *benchFleet {
	b.Helper()
	clk := clock.NewManual(time.Unix(0, 0))
	fabric := transport.NewInProc()
	names := make([]string, nNodes)
	for i := range names {
		names[i] = fmt.Sprintf("node-%05d", i)
		fn := newFleetNode(names[i], clk)
		mux := transport.NewMux()
		fn.serveOn(mux)
		var h transport.Handler = mux
		if observed {
			fn.obsReg = metrics.New()
			h = transport.REDHandling(mux, fn.obsReg)
		}
		stop, err := fabric.Serve(names[i], h)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(stop)
	}
	signer, err := sign.NewSigner("bench-base")
	if err != nil {
		b.Fatal(err)
	}
	base, err := core.NewBase(core.BaseConfig{
		Name:          "bench-base",
		Addr:          "bench-base",
		Caller:        fabric.Node("bench-base"),
		Signer:        signer,
		Store:         store.NewMemory(),
		Clock:         clk,
		LeaseDur:      time.Minute,
		RenewFraction: 0.5,
		CallTimeout:   time.Hour,
		Shards:        16,
		RenewBatch:    64,
		RenewWorkers:  8,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(base.Close)
	reg := metrics.New()
	base.Instrument(reg)
	for _, ext := range []core.Extension{
		noopScenarioExt("policy", 1),
		noopScenarioExt("telemetry", 1),
	} {
		if err := base.AddExtension(ext); err != nil {
			b.Fatal(err)
		}
	}
	return &benchFleet{clk: clk, fabric: fabric, base: base, reg: reg, names: names}
}

func (f *benchFleet) adaptAll(b *testing.B) {
	b.Helper()
	for _, name := range f.names {
		if err := f.base.AdaptNode(name, name); err != nil {
			b.Fatalf("adapt %s: %v", name, err)
		}
	}
}

func (f *benchFleet) releaseAll() {
	for _, name := range f.names {
		f.base.Release(name)
	}
}

// fleetBenchSizes picks the fleet sizes to sweep; FLEET_BENCH_NODES pins a
// single size (CI smoke uses 10000).
func fleetBenchSizes(b *testing.B) []int {
	b.Helper()
	if v := os.Getenv("FLEET_BENCH_NODES"); v != "" {
		var n int
		if _, err := fmt.Sscanf(v, "%d", &n); err != nil || n < 1 {
			b.Fatalf("FLEET_BENCH_NODES=%q: want a positive integer", v)
		}
		return []int{n}
	}
	return []int{1000, 10000}
}

// BenchmarkFleetAdapt measures a full adapt round: every node in the fleet
// walks into the cell and receives the policy set as one batched push, with
// its leases landing on the timer wheel.
func BenchmarkFleetAdapt(b *testing.B) {
	for _, n := range fleetBenchSizes(b) {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			f := newBenchFleet(b, n, false)
			runtime.GC() // earlier sub-benchmarks' garbage is not this bench's cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.adaptAll(b)
				b.StopTimer()
				f.releaseAll()
				b.StartTimer()
			}
			b.StopTimer()
			perNode := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(n)
			b.ReportMetric(perNode, "ns/node")
			writeFleetBench(b, "BenchmarkFleetAdapt", n, map[string]float64{
				"ns_per_round": float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				"ns_per_node":  perNode,
			})
		})
	}
}

// BenchmarkFleetReconcile measures one anti-entropy round over a fully
// adapted, in-sync fleet: an inventory RPC per node, diffed by the base's
// bounded fan-out, 16 nodes at a time whatever the shard count.
func BenchmarkFleetReconcile(b *testing.B) {
	for _, n := range fleetBenchSizes(b) {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			f := newBenchFleet(b, n, false)
			f.adaptAll(b)
			ctx := context.Background()
			runtime.GC() // earlier sub-benchmarks' garbage is not this bench's cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.base.ReconcileNow(ctx)
			}
			b.StopTimer()
			perNode := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(n)
			b.ReportMetric(perNode, "ns/node")
			writeFleetBench(b, "BenchmarkFleetReconcile", n, map[string]float64{
				"ns_per_round": float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				"ns_per_node":  perNode,
			})
		})
	}
}

// BenchmarkRenewScheduler measures one renewal window: the timer wheel fires
// every lease in the fleet, coalesces them into per-node batches, and the
// worker pool renews them over the fabric. One op keeps 2*nodes leases
// alive. Sampling is on — the base traces the window at a 1% head rate with
// tail-keep — and the acceptance bar is that ns_per_window stays within noise
// of the pre-sampling number.
func BenchmarkRenewScheduler(b *testing.B) {
	benchRenewScheduler(b, "BenchmarkRenewScheduler", false)
}

// BenchmarkRenewSchedulerObserved is the same renewal window with the rest of
// the observability plane on top of sampling: every node serves its RPCs
// through RED histograms and piggybacks obs deltas on the batch responses,
// which the base merges into the fleet view. The delta over the unobserved
// arm prices the whole fleet-aggregation feature; EXPERIMENTS.md records it.
func BenchmarkRenewSchedulerObserved(b *testing.B) {
	benchRenewScheduler(b, "BenchmarkRenewSchedulerObserved", true)
}

func benchRenewScheduler(b *testing.B, name string, observed bool) {
	for _, n := range fleetBenchSizes(b) {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			f := newBenchFleet(b, n, observed)
			// Both arms trace with the production sampler config: sampling is
			// part of the base's steady state, not an observed-only extra.
			tr := trace.New(1)
			tr.SetSampler(trace.SamplerConfig{
				Rate: 0.01, Seed: 1, SlowThreshold: 50 * time.Millisecond,
			})
			f.base.Trace(tr)
			f.adaptAll(b)
			leases := f.base.ScheduledRenewals()
			window := 30 * time.Second // LeaseDur * RenewFraction
			runtime.GC()               // earlier sub-benchmarks' garbage is not this bench's cost
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.clk.Advance(window)
				for !f.base.RenewalsQuiesced() {
					runtime.Gosched()
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			perLease := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(leases)
			allocsPerLease := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N) / float64(leases)
			b.ReportMetric(perLease, "ns/lease")
			b.ReportMetric(allocsPerLease, "allocs/lease")
			b.ReportMetric(float64(runtime.NumGoroutine()), "goroutines")
			vals := map[string]float64{
				"ns_per_window":    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				"ns_per_lease":     perLease,
				"allocs_per_lease": allocsPerLease,
				"leases":           float64(leases),
				"goroutines":       float64(runtime.NumGoroutine()),
			}
			if observed {
				vals["reports"] = float64(f.base.FleetStatus().Reports)
			}
			writeFleetBench(b, name, n, vals)
		})
	}
}

// BenchmarkFleetOverloadGoodput prices what the overload front costs the
// base's keepalive work under excess read load. Each op measures
// renewal-window wall time twice — uncontended, then with an open-loop read
// flood offering 2× the rate the base-edge token buckets admit against the
// overload-fronted query surface (/records over ops). The renewals are the
// base's own midas.renewBatch calls to its nodes and never cross the front;
// they compete with the flood only for the base's CPU. The bucket sheds half
// the offered calls before they touch the handler; cheap rejection is what
// keeps the contended number within ~10% of the uncontended one.
// goodput_ratio in BENCH_fleet.json records it.
func BenchmarkFleetOverloadGoodput(b *testing.B) {
	// Each load generator is its own peer: the bucket admits floodAdmitRate
	// queries/sec per peer, and the generator offers exactly twice that on a
	// fixed cadence — 2× offered load by construction, half shed in steady
	// state.
	const (
		floodWorkers     = 8
		floodAdmitRate   = 12 // bucket rate per peer, queries/sec
		floodBurst       = 2
		measurePairs     = 6 // interleaved sample pairs per op
		windowsPerSample = 3 // renewal windows timed as one sample
	)
	for _, n := range fleetBenchSizes(b) {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			f := newBenchFleet(b, n, false)
			// Real clock on the buckets: the refill arithmetic sees the
			// actual pace of the flood.
			lim := overload.NewLimiter(overload.Config{QueueDepth: 16, RetryAfter: 5 * time.Millisecond})
			bk := overload.NewBuckets(overload.BucketConfig{
				Rate: floodAdmitRate, Burst: floodBurst,
				Methods: []string{transport.MethodOps},
			})
			baseMux := transport.NewMux()
			f.base.ServeOn(baseMux)
			transport.ServeOps(baseMux, metrics.NewHandler(nil, nil, f.base.Mounts()...))
			stop, err := f.fabric.Serve("bench-base", overload.Wrap(baseMux, lim, bk, nil))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(stop)
			f.adaptAll(b)
			leases := f.base.ScheduledRenewals()
			window := 30 * time.Second // LeaseDur * RenewFraction

			// One sample times several consecutive renewal windows, so a
			// single scheduler hiccup is small relative to the measured work.
			runSample := func() time.Duration {
				// Collect before timing so GC cycles from prior samples land
				// outside the measurement instead of randomly inside one arm.
				runtime.GC()
				start := time.Now() //lint:allow clockcheck (real goodput measurement)
				for w := 0; w < windowsPerSample; w++ {
					f.clk.Advance(window)
					for !f.base.RenewalsQuiesced() {
						runtime.Gosched()
					}
				}
				return time.Since(start) //lint:allow clockcheck (real goodput measurement)
			}
			// The flood workers run for the whole benchmark — same goroutine
			// and timer load in both arms — and an atomic gate decides whether
			// a wakeup actually issues the query. Windows are then measured in
			// interleaved uncontended/contended pairs so slow drift (CPU
			// steal, background work) cancels out of the ratio.
			var floodActive atomic.Bool
			var floodCalls, floodSheds uint64
			stopFlood := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < floodWorkers; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					cli := f.fabric.Node(fmt.Sprintf("load-%02d", id))
					interval := time.Second / (2 * floodAdmitRate) // 2x the admitted rate
					for {
						select {
						case <-stopFlood:
							return
						default:
						}
						if floodActive.Load() {
							_, err := transport.Ops(context.Background(), cli, "bench-base", "/records")
							atomic.AddUint64(&floodCalls, 1)
							if errors.Is(err, transport.ErrOverloaded) {
								atomic.AddUint64(&floodSheds, 1)
							}
						}
						time.Sleep(interval) //lint:allow clockcheck (paces the offered load in real time)
					}
				}(g)
			}
			defer func() {
				close(stopFlood)
				wg.Wait()
			}()

			settle := func(d time.Duration) {
				time.Sleep(d) //lint:allow clockcheck (flood gate settle, real time)
			}
			runtime.GC() // earlier sub-benchmarks' garbage is not this bench's cost
			b.ResetTimer()
			var uncontendedW, contendedW []time.Duration
			for i := 0; i < b.N; i++ {
				for w := 0; w < measurePairs; w++ {
					// Symmetric settles: both arms start after the same idle
					// stretch, so host-side frequency scaling or scheduler
					// deprioritization after an idle gap hits them equally. The
					// contended settle doubles as burst drain — long enough for
					// the flood to empty the buckets' burst allowance so the
					// measured sample sees the steady shed-half regime.
					floodActive.Store(false)
					settle(150 * time.Millisecond)
					uncontendedW = append(uncontendedW, runSample())
					floodActive.Store(true)
					settle(150 * time.Millisecond)
					contendedW = append(contendedW, runSample())
				}
			}
			b.StopTimer()
			uncontended, kept := trimmedSum(uncontendedW)
			contended, _ := trimmedSum(contendedW)
			// The goodput ratio is the median of per-pair ratios: each
			// contended sample is compared against the uncontended sample
			// measured immediately before it, so machine-level drift cancels
			// within the pair and one noisy pair cannot decide the headline.
			ratios := make([]float64, len(contendedW))
			for i := range contendedW {
				ratios[i] = float64(contendedW[i]) / float64(uncontendedW[i])
			}
			sort.Float64s(ratios)
			ratio := ratios[len(ratios)/2]
			b.ReportMetric(ratio, "x-contended")
			snap := lim.Snapshot()
			writeFleetBench(b, "BenchmarkFleetOverloadGoodput", n, map[string]float64{
				"ns_per_window_uncontended": float64(uncontended.Nanoseconds()) / float64(kept) / windowsPerSample,
				"ns_per_window_2x_load":     float64(contended.Nanoseconds()) / float64(kept) / windowsPerSample,
				"goodput_ratio":             ratio,
				"leases":                    float64(leases),
				"flood_calls":               float64(floodCalls),
				"flood_sheds":               float64(floodSheds),
				"peer_sheds":                float64(bk.Sheds()),
				"expired_drops":             float64(snap.ExpiredDrops),
			})
		})
	}
}

// trimmedSum discards the slowest and fastest eighth of the window samples
// (at least one each side) and returns the sum and count of the rest. The
// goodput arms run on whatever machine CI lands on; trimming keeps one CPU
// steal or background hiccup from deciding the ratio.
func trimmedSum(ds []time.Duration) (time.Duration, int) {
	if len(ds) < 3 {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return sum, len(ds)
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	trim := len(sorted) / 8
	if trim < 1 {
		trim = 1
	}
	kept := sorted[trim : len(sorted)-trim]
	var sum time.Duration
	for _, d := range kept {
		sum += d
	}
	return sum, len(kept)
}

// fleetNote is the ledger's regeneration recipe.
const fleetNote = "fleet-scale base station benchmarks; regenerate with: go test -run '^$' -bench 'Fleet|RenewScheduler' -benchtime=1x -count=5 . " +
	"A row run n times, n above 1, records each metric's median, and for ns_* and allocs_* metrics also their _min and _max, with n."

// fleetRuns collects each row's samples across the repeats of one go test
// process (-count), so the ledger records their median and spread. Only
// samples at the largest b.N seen count: with -benchtime=Kx every repeat
// first runs once with b.N=1, and that probe is not a sample.
var fleetRuns = map[string]*fleetSamples{}

type fleetSamples struct {
	n    int // b.N of the samples
	vals []map[string]float64
}

// writeFleetBench merges one benchmark's numbers into BENCH_fleet.json at
// the repo root (benchmarks run with the package directory as cwd), as the
// aggregate of every sample of the row this process took so far.
// BENCH_FLEET_OUT overrides the path; setting it empty-but-present skips the
// write. Benchmarks run serially, so read-merge-write needs no locking.
func writeFleetBench(b *testing.B, name string, nodes int, vals map[string]float64) {
	b.Helper()
	path := "BENCH_fleet.json"
	if v, ok := os.LookupEnv("BENCH_FLEET_OUT"); ok {
		if v == "" {
			return
		}
		path = v
	}
	key := fmt.Sprintf("%s/nodes=%d", name, nodes)
	runs := fleetRuns[key]
	switch {
	case runs == nil || b.N > runs.n:
		runs = &fleetSamples{n: b.N}
		fleetRuns[key] = runs
	case b.N < runs.n:
		return
	}
	runs.vals = append(runs.vals, vals)

	type doc struct {
		Note       string                        `json:"note"`
		Go         string                        `json:"go"`
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	}
	d := doc{Benchmarks: make(map[string]map[string]float64)}
	if raw, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(raw, &d) // a stale or foreign file is overwritten
	}
	if d.Benchmarks == nil {
		d.Benchmarks = make(map[string]map[string]float64)
	}
	d.Note = fleetNote
	d.Go = runtime.Version()
	row := aggregateFleetSamples(runs.vals)
	row["nodes"] = float64(nodes)
	d.Benchmarks[key] = row
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		b.Fatalf("marshal %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
}

// aggregateFleetSamples reduces one row's samples to each metric's median
// (the mean of the middle two for an even count) and n. With more than one
// sample, ns_* and allocs_* metrics also get _min and _max.
func aggregateFleetSamples(samples []map[string]float64) map[string]float64 {
	row := map[string]float64{"n": float64(len(samples))}
	for k := range samples[0] {
		xs := make([]float64, 0, len(samples))
		for _, s := range samples {
			if v, ok := s[k]; ok {
				xs = append(xs, v)
			}
		}
		sort.Float64s(xs)
		mid := len(xs) / 2
		row[k] = xs[mid]
		if len(xs)%2 == 0 {
			row[k] = (xs[mid-1] + xs[mid]) / 2
		}
		if len(samples) > 1 && (strings.HasPrefix(k, "ns_") || strings.HasPrefix(k, "allocs_")) {
			row[k+"_min"], row[k+"_max"] = xs[0], xs[len(xs)-1]
		}
	}
	return row
}
