package core

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/transport"
)

// Fleet aggregation: the base's view of what every node's RPC surface is
// doing, without a scrape loop over 100k nodes. Nodes piggyback compact
// metric deltas (per-method RED counters plus trace-drop stats) on the
// midas.renewBatch responses they were sending anyway — the base asks with
// WantObs — and the base merges them into per-node and fleet-rollup views
// served at /fleet (rendered live by `midasctl top`).

type (
	// ObsMethodDelta is one method's RED delta since the node's last report:
	// calls served, errors, and summed latency nanoseconds.
	ObsMethodDelta struct {
		Method string
		Count  uint64
		Errors uint64
		SumNs  int64
	}
	// ObsReport is one node's piggybacked observability delta. All values are
	// deltas since the previous report, so the base can merge reports from
	// any mix of nodes without double counting.
	ObsReport struct {
		Methods      []ObsMethodDelta
		SpansDropped uint64
		SampledOut   uint64
		TailKept     uint64
	}

	// FleetMethod is one method's fleet-wide rollup row.
	FleetMethod struct {
		Method string
		Count  uint64
		Errors uint64
		SumNs  int64
		MeanNs int64
	}
	// FleetNode is one node's accumulated totals.
	FleetNode struct {
		Node             string
		Count            uint64
		Errors           uint64
		SumNs            int64
		SpansDropped     uint64
		SampledOut       uint64
		TailKept         uint64
		LastReportMillis int64
	}
	// FleetResp is the fleet document served at /fleet: per-method rollup, per-node totals,
	// the currently degraded nodes and how many obs reports were merged. The
	// rollup and the node rows are two groupings of the same deltas, so their
	// grand totals always agree.
	FleetResp struct {
		Methods  []FleetMethod
		Nodes    []FleetNode
		Degraded []string
		Reports  uint64
		// Overload is the base's overload-control status (concurrency limit,
		// queue depth, shed counters) once SetOverload installed its source;
		// nil otherwise.
		Overload *overload.Snapshot
	}
)

// fleetMethodAgg accumulates one (method) or (node) bucket.
type fleetMethodAgg struct {
	count  uint64
	errors uint64
	sumNs  int64
}

// fleetNodeAgg is one node's accumulated state.
type fleetNodeAgg struct {
	fleetMethodAgg
	spansDropped uint64
	sampledOut   uint64
	tailKept     uint64
	lastMillis   int64
}

// fleetView is the base-side merge target. The zero value is ready to use.
type fleetView struct {
	mu      sync.Mutex
	reports uint64
	nodes   map[string]*fleetNodeAgg
	rollup  map[string]*fleetMethodAgg
}

// merge folds one node's delta report in.
func (f *fleetView) merge(node string, rep ObsReport, atMillis int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.nodes == nil {
		f.nodes = make(map[string]*fleetNodeAgg)
		f.rollup = make(map[string]*fleetMethodAgg)
	}
	f.reports++
	n := f.nodes[node]
	if n == nil {
		n = &fleetNodeAgg{}
		f.nodes[node] = n
	}
	n.lastMillis = atMillis
	n.spansDropped += rep.SpansDropped
	n.sampledOut += rep.SampledOut
	n.tailKept += rep.TailKept
	for _, m := range rep.Methods {
		n.count += m.Count
		n.errors += m.Errors
		n.sumNs += m.SumNs
		r := f.rollup[m.Method]
		if r == nil {
			r = &fleetMethodAgg{}
			f.rollup[m.Method] = r
		}
		r.count += m.Count
		r.errors += m.Errors
		r.sumNs += m.SumNs
	}
}

// snapshot renders the view, sorted for stable output.
func (f *fleetView) snapshot() FleetResp {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := FleetResp{Reports: f.reports}
	for method, r := range f.rollup {
		row := FleetMethod{Method: method, Count: r.count, Errors: r.errors, SumNs: r.sumNs}
		if r.count > 0 {
			row.MeanNs = r.sumNs / int64(r.count)
		}
		out.Methods = append(out.Methods, row)
	}
	sort.Slice(out.Methods, func(i, j int) bool { return out.Methods[i].Method < out.Methods[j].Method })
	for node, n := range f.nodes {
		out.Nodes = append(out.Nodes, FleetNode{
			Node:             node,
			Count:            n.count,
			Errors:           n.errors,
			SumNs:            n.sumNs,
			SpansDropped:     n.spansDropped,
			SampledOut:       n.sampledOut,
			TailKept:         n.tailKept,
			LastReportMillis: n.lastMillis,
		})
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].Node < out.Nodes[j].Node })
	return out
}

// FleetStatus returns the merged fleet observability view plus the currently
// degraded nodes.
func (b *Base) FleetStatus() FleetResp {
	resp := b.fleet.snapshot()
	resp.Degraded = b.Degraded()
	sort.Strings(resp.Degraded)
	if fn := b.overload.Load(); fn != nil {
		s := (*fn)()
		resp.Overload = &s
	}
	return resp
}

// SetOverload installs the overload-control status source rendered in
// FleetStatus (typically overload.Handler.Snapshot). Atomic, so it can be
// wired after the base is already serving.
func (b *Base) SetOverload(fn func() overload.Snapshot) {
	if fn == nil {
		b.overload.Store(nil)
		return
	}
	b.overload.Store(&fn)
}

// mergeObs folds a node's piggybacked report into the fleet view.
func (b *Base) mergeObs(node string, rep *ObsReport) {
	if rep == nil {
		return
	}
	b.fleet.merge(node, *rep, b.cfg.Clock.Now().UnixMilli())
}

// obsCum is one method's cumulative counters at the node, remembered so the
// next report sends only the delta. errs caches the method's error-counter
// handle so reports after the first neither rebuild the instrument name nor
// search the registry.
type obsCum struct {
	count  uint64
	errors uint64
	sumNs  int64
	errs   *metrics.Counter
}

// obsReport computes the node's delta since the last report from its own
// metrics registry (the server-side RED instruments) and tracer. Returns nil
// when there is nothing new to say, which costs zero bytes on the wire.
func (r *Receiver) obsReport() *ObsReport {
	r.mu.Lock()
	reg := r.reg
	tr := r.tracer
	r.mu.Unlock()
	if reg == nil && tr == nil {
		return nil
	}

	rep := &ObsReport{}
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	if reg != nil {
		if r.obsSent == nil {
			r.obsSent = make(map[string]obsCum)
		}
		// VisitHistograms over a full Snapshot: reports ride on every renewal
		// batch, and a snapshot's bucket copies and quantiles are pure garbage
		// when only the totals feed the delta.
		prefix := transport.REDSuffix(transport.REDServerPrefix, "ns", "")
		reg.VisitHistograms(func(name string, count uint64, sum int64) {
			method, ok := strings.CutPrefix(name, prefix)
			if !ok || method == "" {
				return
			}
			last := r.obsSent[method]
			if last.errs == nil {
				last.errs = reg.Counter(transport.REDSuffix(transport.REDServerPrefix, "errors", method))
			}
			cum := obsCum{
				count:  count,
				sumNs:  sum,
				errors: last.errs.Value(),
				errs:   last.errs,
			}
			d := ObsMethodDelta{
				Method: method,
				Count:  cum.count - last.count,
				Errors: cum.errors - last.errors,
				SumNs:  cum.sumNs - last.sumNs,
			}
			// Always store: on a zero delta cum equals the stored value, and
			// storing it anyway keeps the resolved errs handle cached.
			r.obsSent[method] = cum
			if d.Count == 0 && d.Errors == 0 && d.SumNs == 0 {
				return
			}
			rep.Methods = append(rep.Methods, d)
		})
		// Canonical order: the wire codec round-trips bit for bit and the
		// base's merge is order-independent either way.
		sort.Slice(rep.Methods, func(i, j int) bool { return rep.Methods[i].Method < rep.Methods[j].Method })
	}
	if tr != nil {
		dropped := tr.SpansDropped()
		sampledOut, tailKept := tr.SamplerStats()
		rep.SpansDropped = dropped - r.obsDropped
		rep.SampledOut = sampledOut - r.obsSampledOut
		rep.TailKept = tailKept - r.obsTailKept
		r.obsDropped, r.obsSampledOut, r.obsTailKept = dropped, sampledOut, tailKept
	}
	if len(rep.Methods) == 0 && rep.SpansDropped == 0 && rep.SampledOut == 0 && rep.TailKept == 0 {
		return nil
	}
	return rep
}
