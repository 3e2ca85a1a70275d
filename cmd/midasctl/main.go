// Command midasctl inspects and manages a running MIDAS node or base
// station over TCP: list installed extensions, revoke one, query the lookup
// service, or dump a base's movement database.
//
// Usage:
//
//	midasctl -node 127.0.0.1:7101 list
//	midasctl -node 127.0.0.1:7101 revoke hw-monitoring
//	midasctl -node 127.0.0.1:7101 metrics
//	midasctl -node 127.0.0.1:7101 trace [ext|node|traceID]
//	midasctl -lookup 127.0.0.1:7000 services
//	midasctl -base 127.0.0.1:7000 records [robot]
//	midasctl -base 127.0.0.1:7000 status
//	midasctl -base 127.0.0.1:7000 analyze <extension>
//	midasctl -base 127.0.0.1:7000 top
//
// The metrics and top subcommands accept -watch <interval> to poll and
// re-render in place (Ctrl-C exits); top shows the base's merged fleet
// observability view, slowest methods first.
//
// list, metrics, trace, records, status, analyze and top read the daemon's
// JSON documents (/extensions, /metrics, /trace + /events, /records, /status,
// /analyze, /fleet) over the ops RPC and render them as text: midasctl prints
// what curl sees on the daemon's -http listener. revoke sends the node a
// midas.applyBatch of one revoke, the same call a base makes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		nodeAddr   = flag.String("node", "", "adaptation service address")
		lookupAddr = flag.String("lookup", "", "lookup service address")
		baseAddr   = flag.String("base", "", "base station address")
		watch      = flag.Duration("watch", 0, "poll and re-render every interval (metrics and top; 0 = print once)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return fmt.Errorf("need a subcommand: list | revoke <name> | metrics | trace [query] | services | records [robot] | status | analyze <name> | top")
	}

	caller := transport.NewTCPCaller()
	defer caller.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	switch args[0] {
	case "list":
		if *nodeAddr == "" {
			return fmt.Errorf("list needs -node")
		}
		var exts []core.ExtensionInfo
		if err := getDoc(ctx, caller, *nodeAddr, "/extensions", &exts); err != nil {
			return err
		}
		if len(exts) == 0 {
			fmt.Println("no extensions installed")
			return nil
		}
		for _, e := range exts {
			tag := ""
			if e.System {
				tag = " (implicit)"
			}
			fmt.Printf("%-24s v%-3d from %s%s\n", e.Name, e.Version, e.BaseAddr, tag)
		}
	case "revoke":
		if *nodeAddr == "" || len(args) < 2 {
			return fmt.Errorf("revoke needs -node and an extension name")
		}
		resp, err := transport.Invoke[core.ApplyBatchReq, core.ApplyBatchResp](ctx, caller, *nodeAddr, core.MethodApplyBatch, core.ApplyBatchReq{Revokes: args[1:2]})
		if err != nil {
			return err
		}
		if len(resp.Revokes) != 1 {
			return fmt.Errorf("revoke %s: %d outcomes in the response, want 1", args[1], len(resp.Revokes))
		}
		if e := resp.Revokes[0].Err; e != "" {
			return fmt.Errorf("revoke %s: %s", args[1], e)
		}
		fmt.Printf("revoked %s\n", args[1])
	case "metrics":
		target := *nodeAddr
		if target == "" {
			target = *baseAddr
		}
		if target == "" {
			return fmt.Errorf("metrics needs -node or -base")
		}
		return watchLoop(*watch, func(ctx context.Context) error {
			var snap metrics.Snapshot
			if err := getDoc(ctx, caller, target, "/metrics", &snap); err != nil {
				return err
			}
			metrics.WriteText(os.Stdout, snap)
			return nil
		})
	case "top":
		if *baseAddr == "" {
			return fmt.Errorf("top needs -base")
		}
		return watchLoop(*watch, func(ctx context.Context) error {
			var fleet core.FleetResp
			if err := getDoc(ctx, caller, *baseAddr, "/fleet", &fleet); err != nil {
				return err
			}
			writeFleet(os.Stdout, fleet)
			return nil
		})
	case "trace":
		target := *nodeAddr
		if target == "" {
			target = *baseAddr
		}
		if target == "" {
			return fmt.Errorf("trace needs -node or -base")
		}
		query := ""
		if len(args) > 1 {
			query = args[1]
		}
		spans, events, err := getTrace(ctx, caller, target, query)
		if err != nil {
			return err
		}
		if len(spans) == 0 {
			fmt.Println("no matching spans")
		} else {
			trace.WriteText(os.Stdout, spans)
		}
		if len(events) > 0 {
			fmt.Println()
			trace.WriteEventsText(os.Stdout, events)
		}
	case "services":
		if *lookupAddr == "" {
			return fmt.Errorf("services needs -lookup")
		}
		client := &registry.Client{Caller: caller, Addr: *lookupAddr}
		items, err := client.Find(registry.Template{})
		if err != nil {
			return err
		}
		for _, it := range items {
			fmt.Printf("%-16s %-20s at %s %v\n", it.ID, it.Name, it.Addr, it.Attrs)
		}
		fmt.Printf("%d services\n", len(items))
	case "records":
		if *baseAddr == "" {
			return fmt.Errorf("records needs -base")
		}
		path := "/records"
		if len(args) > 1 {
			path += "?robot=" + url.QueryEscape(args[1])
		}
		var recs []store.Record
		if err := getDoc(ctx, caller, *baseAddr, path, &recs); err != nil {
			return err
		}
		for _, r := range recs {
			fmt.Printf("%6d  %-14s %-10s %-12s %6d  at %d\n", r.Seq, r.Robot, r.Device, r.Action, r.Value, r.AtMillis)
		}
		fmt.Printf("%d records\n", len(recs))
	case "analyze":
		if *baseAddr == "" || len(args) < 2 {
			return fmt.Errorf("analyze needs -base and an extension name")
		}
		var rep core.AnalysisReport
		if err := getDoc(ctx, caller, *baseAddr, "/analyze?ext="+url.QueryEscape(args[1]), &rep); err != nil {
			return err
		}
		writeAnalysis(os.Stdout, rep)
	case "status":
		if *baseAddr == "" {
			return fmt.Errorf("status needs -base")
		}
		var st core.BaseStatusResp
		if err := getDoc(ctx, caller, *baseAddr, "/status", &st); err != nil {
			return err
		}
		writeStatus(os.Stdout, st)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	return nil
}

// getDoc reads the JSON document at path from the daemon at addr over the
// ops RPC into v.
func getDoc(ctx context.Context, c transport.Caller, addr, path string, v any) error {
	body, err := transport.Ops(ctx, c, addr, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s %s: %w", addr, path, err)
	}
	return nil
}

// getTrace resolves a trace query: the spans /trace?q= finds plus every
// buffered event of their traces from /events (all events for an empty
// query).
func getTrace(ctx context.Context, c transport.Caller, addr, query string) ([]trace.SpanSnapshot, []trace.Event, error) {
	var spans []trace.SpanSnapshot
	if err := getDoc(ctx, c, addr, "/trace?q="+url.QueryEscape(query), &spans); err != nil {
		return nil, nil, err
	}
	var events []trace.Event
	if err := getDoc(ctx, c, addr, "/events", &events); err != nil {
		return nil, nil, err
	}
	if query == "" {
		return spans, events, nil
	}
	ids := make(map[string]bool, len(spans))
	for _, s := range spans {
		ids[s.TraceID] = true
	}
	var kept []trace.Event
	for _, e := range events {
		if ids[e.TraceID] {
			kept = append(kept, e)
		}
	}
	return spans, kept, nil
}

// watchLoop renders once, or — with a positive interval — clears the screen
// and re-renders every interval until interrupted or a poll fails. Each round
// gets its own timeout so a stalled peer cannot wedge the loop forever.
func watchLoop(interval time.Duration, render func(ctx context.Context) error) error {
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if interval > 0 {
			fmt.Print("\x1b[H\x1b[2J") // cursor home + clear, like watch(1)
		}
		err := render(ctx)
		cancel()
		if err != nil || interval <= 0 {
			return err
		}
		<-clock.Real{}.After(interval)
	}
}

// writeFleet renders the base's merged fleet observability view: the rollup
// sorted slowest-method first, then the busiest nodes with their trace-drop
// counters, plus whatever the base currently considers degraded.
func writeFleet(w io.Writer, resp core.FleetResp) {
	fmt.Fprintf(w, "fleet: %d report(s) merged, %d method(s), %d node(s)\n",
		resp.Reports, len(resp.Methods), len(resp.Nodes))
	if len(resp.Degraded) > 0 {
		fmt.Fprintf(w, "degraded: %s\n", strings.Join(resp.Degraded, ", "))
	}
	if o := resp.Overload; o != nil {
		fmt.Fprintf(w, "overload: limit=%d inflight=%d queued=%d admitted=%d\n",
			o.Limit, o.Inflight, o.Queued, o.Admitted)
		fmt.Fprintf(w, "          sheds keepalive=%d mutation=%d read=%d peer=%d (peers=%d) expired=%d\n",
			o.ShedKeepalive, o.ShedMutation, o.ShedRead, o.PeerSheds, o.Peers, o.ExpiredDrops)
	}
	methods := append([]core.FleetMethod(nil), resp.Methods...)
	sort.Slice(methods, func(i, j int) bool {
		if methods[i].MeanNs != methods[j].MeanNs {
			return methods[i].MeanNs > methods[j].MeanNs
		}
		return methods[i].Method < methods[j].Method
	})
	if len(methods) > 0 {
		fmt.Fprintf(w, "\n%-28s %10s %8s %12s\n", "METHOD", "CALLS", "ERRORS", "MEAN")
		for _, m := range methods {
			fmt.Fprintf(w, "%-28s %10d %8d %12s\n", m.Method, m.Count, m.Errors, time.Duration(m.MeanNs))
		}
	}
	nodes := append([]core.FleetNode(nil), resp.Nodes...)
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Count != nodes[j].Count {
			return nodes[i].Count > nodes[j].Count
		}
		return nodes[i].Node < nodes[j].Node
	})
	if len(nodes) > 0 {
		fmt.Fprintf(w, "\n%-24s %10s %8s %9s %12s %9s\n", "NODE", "CALLS", "ERRORS", "DROPPED", "SAMPLED-OUT", "TAILKEPT")
		for _, n := range nodes {
			fmt.Fprintf(w, "%-24s %10d %8d %9d %12d %9d\n",
				n.Node, n.Count, n.Errors, n.SpansDropped, n.SampledOut, n.TailKept)
		}
	}
}

// writeAnalysis renders one extension's stored admission analysis.
func writeAnalysis(w io.Writer, rep core.AnalysisReport) {
	fmt.Fprintf(w, "extension %s v%d\n", rep.Ext, rep.Version)
	fmt.Fprintf(w, "inferred capabilities: %s\n", strings.Join(rep.Caps, ", "))
	if len(rep.HostCalls) > 0 {
		fmt.Fprintf(w, "reachable host calls:  %s\n", strings.Join(rep.HostCalls, ", "))
	}
	if len(rep.Flows) > 0 {
		fmt.Fprintf(w, "information flows:     %s\n", strings.Join(rep.Flows, ", "))
	}
	if rep.FuelBounded {
		fmt.Fprintf(w, "fuel: bounded, <= %d steps per activation\n", rep.FuelSteps)
	} else {
		fmt.Fprintln(w, "fuel: unbounded (default step cap applies)")
	}
	for _, warn := range rep.Warnings {
		fmt.Fprintf(w, "warning: %s\n", warn)
	}
}

// writeStatus renders a base status report: policy set, one row per node with
// its last reconcile outcome, and the drift totals.
func writeStatus(w io.Writer, st core.BaseStatusResp) {
	fmt.Fprintf(w, "base %s at %s\n", st.Name, st.Addr)
	fmt.Fprintf(w, "policy set: %s\n", strings.Join(st.Extensions, ", "))
	if len(st.Nodes) == 0 {
		fmt.Fprintln(w, "no nodes")
	}
	for _, n := range st.Nodes {
		fmt.Fprintf(w, "%-16s %-10s exts=[%s]\n", n.Addr, n.State, strings.Join(n.Exts, ", "))
		fmt.Fprintf(w, "%16s last reconcile: %s\n", "", reconcileSummary(n.LastReconcile))
	}
	fmt.Fprintf(w, "drift: rounds=%d repushes=%d orphans=%d adopts=%d errors=%d\n",
		st.Drift.Rounds, st.Drift.Repushes, st.Drift.Orphans, st.Drift.Adopts, st.Drift.Errors)
}

func reconcileSummary(r core.ReconcileResult) string {
	if r.AtMillis == 0 {
		return "never"
	}
	at := time.UnixMilli(r.AtMillis).Format(time.RFC3339)
	switch {
	case r.Err != "":
		return fmt.Sprintf("%s error: %s", at, r.Err)
	case r.InSync:
		return at + " in sync"
	default:
		out := at
		if r.Promoted {
			out += " promoted"
		}
		if len(r.Repushed) > 0 {
			out += fmt.Sprintf(" repushed=%v", r.Repushed)
		}
		if len(r.Revoked) > 0 {
			out += fmt.Sprintf(" revoked=%v", r.Revoked)
		}
		if len(r.Adopted) > 0 {
			out += fmt.Sprintf(" adopted=%v", r.Adopted)
		}
		return out
	}
}
