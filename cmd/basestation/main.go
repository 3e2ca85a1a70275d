// Command basestation runs a MIDAS extension base with an embedded lookup
// service and movement database over TCP. Mobile nodes (cmd/node) register
// their adaptation services at the lookup endpoint; the base adapts them with
// the configured extension set and keeps the leases alive.
//
// Usage:
//
//	basestation -addr 127.0.0.1:7000 -store movements.log -keyfile base.pub \
//	    -state-dir /var/lib/midas/base -ext hwmonitor -ext 'accesscontrol:allow=operator'
//
// The signing public key is written to -keyfile; nodes pass it via -trustkey.
// With -state-dir, adapted nodes and lease grants are journalled and a
// restarted base resumes its renewals instead of starting blank; -reconcile
// sets the anti-entropy period. A node whose lease renewals get no answer
// for a whole renewal cycle is parked degraded until a reconcile round
// reaches it again; with -reconcile 0, or when the node answered with a
// refusal, it is departed instead. With -admission, extensions must pass the
// static capability analysis against the given allowlist (e.g.
// -admission store,clock) before they join the policy set; -admission-flows
// additionally restricts the information flows their bytecode may exercise
// (e.g. -admission-flows store->net) — flows the bytecode exercises but the
// descriptor does not declare are refused regardless.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/registry"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
)

type extFlags []string

func (e *extFlags) String() string { return strings.Join(*e, ",") }
func (e *extFlags) Set(v string) error {
	*e = append(*e, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:7000", "TCP listen address (lookup + base)")
		name      = flag.String("name", "hall-1", "environment name and signer identity")
		storePath = flag.String("store", "", "movement database journal (empty = in-memory)")
		keyFile   = flag.String("keyfile", "", "write the signing public key (hex) to this file")
		leaseDur  = flag.Duration("lease", 10*time.Second, "extension lease duration")
		httpAddr  = flag.String("http", "127.0.0.1:8001", "metrics/health HTTP address (empty disables)")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -http listener")
		stateDir  = flag.String("state-dir", "", "directory for the durable lifecycle journal (empty = no crash recovery)")
		reconcile = flag.Duration("reconcile", 30*time.Second, "anti-entropy reconciliation period (0 disables)")
		admission = flag.String("admission", "", "comma-separated capability allowlist enforced at admission (empty = declared caps only)")
		admFlows  = flag.String("admission-flows", "", "comma-separated information-flow allowlist, e.g. store->net,session->log (empty = any declared flow; undeclared flows are always refused)")
		shards    = flag.Int("shards", 16, "node-table shards (lock stripes for adapt, renewal and reconcile)")
		renewBat  = flag.Int("renew-batch", 64, "max leases coalesced into one batched renewal RPC per node")
		renewWrk  = flag.Int("renew-workers", 8, "concurrent renewal RPC workers")
		ovlQueue  = flag.Int("overload-queue", 128, "bounded wait-queue depth per priority class")
		ovlRetry  = flag.Duration("overload-retry-after", 250*time.Millisecond, "retry-after hint attached to shed responses")
		ovlPRate  = flag.Float64("overload-peer-rate", 50, "per-peer token refill rate (calls/s) on governed methods (0 disables)")
		ovlPBurst = flag.Float64("overload-peer-burst", 100, "per-peer token bucket capacity")
		smpRate   = flag.Float64("trace-sample", 1, "head-sampling rate for new traces, 0..1 (1 = record everything)")
		smpSlow   = flag.Duration("trace-slow", 100*time.Millisecond, "tail-keep threshold: sampled-out spans at least this slow are retained anyway")
		exts      extFlags
	)
	flag.Var(&exts, "ext", "extension preset, repeatable: hwmonitor | logger | accesscontrol:allow=a,b")
	flag.Parse()

	seed := clock.Real{}.Now().UnixNano()
	tracer := trace.New(seed)
	if *smpRate < 1 {
		tracer.SetSampler(trace.SamplerConfig{Rate: *smpRate, Seed: seed, SlowThreshold: *smpSlow})
	}

	signer, err := sign.NewSigner(*name)
	if err != nil {
		return err
	}
	if *keyFile != "" {
		if err := os.WriteFile(*keyFile, []byte(hex.EncodeToString(signer.PublicKey())+"\n"), 0o644); err != nil {
			return err
		}
	}

	var db *store.Store
	if *storePath != "" {
		db, err = store.Open(*storePath)
		if err != nil {
			return err
		}
		defer db.Close()
	} else {
		db = store.NewMemory()
	}

	mux := transport.NewMux()
	caller := transport.NewTCPCaller()
	defer caller.Close()

	lookup := registry.NewLookup(clock.Real{})
	lookup.Grantor().Start(time.Second)
	defer lookup.Grantor().Stop()
	lookupSrv := registry.NewServer(lookup, mux, caller, clock.Real{})
	defer lookupSrv.Close()

	var journal *core.BaseJournal
	if *stateDir != "" {
		journal, err = core.OpenBaseJournal(*stateDir)
		if err != nil {
			return err
		}
		defer journal.Close()
	}

	var admissionPolicy sandbox.Policy
	if *admission != "" {
		var caps []sandbox.Capability
		for _, c := range strings.Split(*admission, ",") {
			if c = strings.TrimSpace(c); c != "" {
				caps = append(caps, sandbox.Capability(c))
			}
		}
		admissionPolicy = sandbox.Allowlist(caps...)
	}
	var flowAllow []string
	if *admFlows != "" {
		for _, f := range strings.Split(*admFlows, ",") {
			if f = strings.TrimSpace(f); f != "" {
				flowAllow = append(flowAllow, f)
			}
		}
	}

	base, err := core.NewBase(core.BaseConfig{
		Name:           *name,
		Addr:           *addr,
		Caller:         caller,
		Signer:         signer,
		Store:          db,
		LeaseDur:       *leaseDur,
		Journal:        journal,
		ReconcileEvery: *reconcile,
		Admission:      admissionPolicy,
		AdmissionFlows: flowAllow,
		Shards:         *shards,
		RenewBatch:     *renewBat,
		RenewWorkers:   *renewWrk,
	})
	if err != nil {
		return err
	}
	defer base.Close()
	base.OnDepart(func(node string) { log.Printf("node departed: %s", node) })
	base.Trace(tracer)
	base.ServeOn(mux)
	lookup.Grantor().Trace(tracer)

	reg := metrics.New()
	lookup.Instrument(reg)
	caller.Instrument(reg)
	base.Instrument(reg)

	for i, spec := range exts {
		e, err := presetExtension(*name, i, spec)
		if err != nil {
			return err
		}
		if err := base.AddExtension(e); err != nil {
			return err
		}
		log.Printf("extension in policy set: %s", e.Name)
	}

	if journal != nil {
		restored, err := base.Recover()
		if err != nil {
			return fmt.Errorf("recover from %s: %w", *stateDir, err)
		}
		if restored > 0 {
			log.Printf("recovered %d node(s) from the state journal; renewals resumed", restored)
		}
	}

	// The overload front sits innermost — after tracing has opened the server
	// span, so sheds are visible in traces, but before any handler runs.
	lim := overload.NewLimiter(overload.Config{QueueDepth: *ovlQueue, RetryAfter: *ovlRetry})
	lim.Instrument(reg)
	var buckets *overload.Buckets
	if *ovlPRate > 0 {
		buckets = overload.NewBuckets(overload.BucketConfig{
			Rate:  *ovlPRate,
			Burst: *ovlPBurst,
			Methods: []string{
				core.MethodBasePost, core.MethodBaseOnService,
				registry.MethodFind,
			},
			RetryAfter: *ovlRetry,
		})
		buckets.Instrument(reg)
	}
	ovl := overload.Wrap(mux, lim, buckets, tracer)
	base.SetOverload(ovl.Snapshot)
	srv, err := transport.ServeTCP(*addr, transport.REDHandling(transport.TraceHandling(ovl, tracer, *name), reg))
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Instrument(reg)
	log.Printf("base station %s serving on %s (signer %s)", *name, srv.Addr(), signer.Fingerprint())

	health := metrics.NewHealth()
	health.Register("transport", func() error {
		conn, err := net.DialTimeout("tcp", srv.Addr(), 500*time.Millisecond)
		if err != nil {
			return err
		}
		return conn.Close()
	})
	health.Register("nodes", func() error {
		if d := base.Degraded(); len(d) > 0 {
			return fmt.Errorf("%d node(s) degraded: %s", len(d), strings.Join(d, ", "))
		}
		return nil
	})
	health.Register("lookup", base.LookupWatchErr)
	health.RegisterValue("base.degraded_nodes", func() int64 { return int64(len(base.Degraded())) })
	health.RegisterValue("base.renewal_backlog", func() int64 { return int64(base.RenewalBacklog()) })
	health.RegisterValue("trace.spans_dropped", func() int64 { return int64(tracer.SpansDropped()) })
	health.RegisterValue("overload.queued", func() int64 { return int64(ovl.Snapshot().Queued) })
	health.RegisterValue("overload.sheds", func() int64 { return int64(ovl.Snapshot().Sheds()) })
	health.RegisterValue("overload.expired_drops", func() int64 { return int64(ovl.Snapshot().ExpiredDrops) })
	// One observability handler serves the ops RPC and the -http listener.
	docs := metrics.NewHandler(reg, health, append([]metrics.Mount{
		{Pattern: "/trace", Handler: trace.Handler(tracer)},
		{Pattern: "/events", Handler: trace.EventsHandler(tracer)},
	}, base.Mounts()...)...)
	transport.ServeOps(mux, docs)

	if *httpAddr != "" {
		web := docs
		if *pprofOn {
			web = metrics.WithPprof(docs)
		}
		maddr, stopHTTP, err := metrics.ServeHTTP(*httpAddr, web)
		if err != nil {
			return err
		}
		defer stopHTTP()
		log.Printf("metrics on http://%s/metrics, traces on http://%s/trace, fleet view on http://%s/fleet", maddr, maddr, maddr)
		if *pprofOn {
			log.Printf("pprof on http://%s/debug/pprof/", maddr)
		}
	}

	if _, err := base.WatchLookup(&registry.Client{Caller: caller, Addr: srv.Addr()}, *leaseDur); err != nil {
		return err
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	<-sigCh
	log.Printf("shutting down; activity log (newest entries only; base.* counters in /metrics count every event):")
	for _, a := range base.Activity() {
		log.Printf("  %d %-10s node=%s ext=%s %s", a.AtMillis, a.Event, a.Node, a.Ext, a.Detail)
	}
	return nil
}

// presetExtension parses "name" or "name:key=val,key=val" extension specs.
func presetExtension(hall string, idx int, spec string) (core.Extension, error) {
	kind, cfgSrc, _ := strings.Cut(spec, ":")
	cfg := make(map[string]string)
	if cfgSrc != "" {
		for _, kv := range strings.Split(cfgSrc, ";") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return core.Extension{}, fmt.Errorf("bad config %q in -ext %q", kv, spec)
			}
			cfg[k] = v
		}
	}
	e := core.Extension{
		ID:      fmt.Sprintf("%s/%s-%d", hall, kind, idx),
		Name:    kind,
		Version: 1,
	}
	switch kind {
	case ext.BMonitor:
		if cfg["mode"] == "" {
			cfg["mode"] = "sync"
		}
		e.Advices = []core.AdviceSpec{{
			Name: "monitor", Kind: core.KindCallBefore, Pattern: "Motor.*(..)",
			Builtin: ext.BMonitor, Config: cfg,
		}}
		e.Caps = []string{"net", "clock"}
	case ext.BLogger:
		e.Advices = []core.AdviceSpec{{
			Name: "log", Kind: core.KindCallBefore, Pattern: "*.*(..)",
			Builtin: ext.BLogger, Config: cfg,
		}}
		e.Caps = []string{"log"}
	case ext.BAccessControl:
		e.Advices = []core.AdviceSpec{{
			Name: "authorize", Kind: core.KindCallBefore, Pattern: "*.*(..)",
			Builtin: ext.BAccessControl, Config: cfg,
		}}
		e.Requires = []string{ext.SessionBundleName}
		e.Caps = []string{"session"}
	default:
		return core.Extension{}, fmt.Errorf("unknown extension preset %q", kind)
	}
	return e, nil
}
