// Command node runs a mobile plotter node: the plotter application, its
// exported drawing service and the MIDAS adaptation service, all over TCP.
// On startup it registers at a base station's lookup service; the base then
// adapts it with the hall's extensions. Ctrl-C simulates leaving the hall
// (the registration and extension leases lapse).
//
// Usage:
//
//	node -name plotter-1 -addr 127.0.0.1:0 -lookup 127.0.0.1:7000 -trustkey base.pub
//
// With -state-dir the node journals its installed extensions and lease
// deadlines, and a restart re-weaves whatever leases are still live (anything
// that lapsed while the node was down is withdrawn immediately on replay).
//
// Pass -faults (with an optional -seed) to inject reproducible loss, latency
// and duplication into the node's outbound calls, e.g.
//
//	node ... -faults loss=0.1,dup=0.05,latmax=50ms -seed 42
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
	"repro/internal/plotter"
	"repro/internal/registry"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/weave"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		name     = flag.String("name", "plotter-1", "node name")
		addr     = flag.String("addr", "127.0.0.1:0", "TCP listen address")
		lookup   = flag.String("lookup", "127.0.0.1:7000", "lookup service address")
		trustKey = flag.String("trustkey", "", "file with a trusted signer public key (hex)")
		kvPath   = flag.String("kv", "", "node KV journal for persistence extensions (empty = in-memory)")
		stateDir = flag.String("state-dir", "", "directory for the durable adaptation journal (empty = no crash recovery)")
		httpAddr = flag.String("http", "127.0.0.1:8101", "metrics/health HTTP address (empty disables)")
		faults   = flag.String("faults", "", "inject outbound faults, e.g. loss=0.1,dup=0.05,latmax=50ms (empty disables)")
		seed     = flag.Int64("seed", 1, "fault-injection RNG seed (used with -faults)")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the -http listener")
		smpRate  = flag.Float64("trace-sample", 1, "head-sampling rate for new traces, 0..1 (1 = record everything)")
		smpSlow  = flag.Duration("trace-slow", 100*time.Millisecond, "tail-keep threshold: sampled-out spans at least this slow are retained anyway")
	)
	flag.Parse()

	tseed := clock.Real{}.Now().UnixNano()
	tracer := trace.New(tseed)
	if *smpRate < 1 {
		tracer.SetSampler(trace.SamplerConfig{Rate: *smpRate, Seed: tseed, SlowThreshold: *smpSlow})
	}
	reg := metrics.New()

	weaver := weave.New()
	canvas := plotter.NewCanvas(40, 20)
	plot, err := plotter.New(weaver, canvas)
	if err != nil {
		return err
	}
	services := svc.NewRegistry(weaver)
	plot.RegisterService(services)

	trust := sign.NewTrustStore()
	if *trustKey != "" {
		raw, err := os.ReadFile(*trustKey)
		if err != nil {
			return err
		}
		key, err := hex.DecodeString(strings.TrimSpace(string(raw)))
		if err != nil {
			return fmt.Errorf("bad trust key: %w", err)
		}
		trust.Trust("base", key)
		log.Printf("trusting signer %s", sign.Fingerprint(key))
	} else {
		log.Printf("warning: no -trustkey; all extensions will be rejected")
	}

	var kv *store.KV
	if *kvPath != "" {
		kv, err = store.OpenKV(*kvPath)
		if err != nil {
			return err
		}
		defer kv.Close()
	} else {
		kv = store.NewKV()
	}

	tcp := transport.NewTCPCaller()
	defer tcp.Close()
	var caller transport.Caller = tcp
	var chaos *simnet.Chaos
	if *faults != "" {
		prof, err := simnet.ParseFaults(*faults)
		if err != nil {
			return err
		}
		chaos = simnet.NewChaos(tcp, *seed, prof)
		caller = chaos
		log.Printf("chaos: injecting %s on outbound calls (seed %d)", *faults, *seed)
	}
	caller = transport.REDCalls(transport.TraceCalls(caller, tracer), reg)
	builtins := core.NewBuiltins()
	ext.RegisterAll(builtins)
	host := ext.NewNodeHost(ext.NodeHostConfig{
		Caller: caller,
		KV:     kv,
		Clock:  clock.Real{},
		Log:    func(s string) { log.Printf("[ext] %s", s) },
	})

	mux := transport.NewMux()
	services.ServeOn(mux)
	srv, err := transport.ServeTCP(*addr, transport.REDHandling(transport.TraceHandling(mux, tracer, *name), reg))
	if err != nil {
		return err
	}
	defer srv.Close()

	var journal *core.ReceiverJournal
	if *stateDir != "" {
		journal, err = core.OpenReceiverJournal(*stateDir)
		if err != nil {
			return err
		}
		defer journal.Close()
	}

	receiver, err := core.NewReceiver(core.ReceiverConfig{
		NodeName: *name,
		Addr:     srv.Addr(),
		Weaver:   weaver,
		Trust:    trust,
		Policy:   sandbox.AllowAll(),
		Host:     host,
		Builtins: builtins,
		Extras:   map[string]any{ext.ExtraTxnManager: txn.NewManager(kv)},
		Journal:  journal,
	})
	if err != nil {
		return err
	}
	weaver.Instrument(reg)
	tcp.Instrument(reg)
	if chaos != nil {
		chaos.Instrument(reg)
	}
	srv.Instrument(reg)
	receiver.Instrument(reg)
	receiver.Trace(tracer)

	receiver.ServeOn(mux)
	receiver.Grantor().Start(time.Second)
	defer receiver.Grantor().Stop()

	if journal != nil {
		// A damaged journal must not keep the node down: start empty and
		// let the base's reconciliation re-push what belongs here.
		restored, err := receiver.Recover()
		if err != nil {
			log.Printf("warning: recover from %s: %v (starting empty)", *stateDir, err)
		} else if restored > 0 {
			log.Printf("recovered %d extension(s) from the state journal", restored)
		}
	}

	log.Printf("node %s serving on %s", *name, srv.Addr())

	health := metrics.NewHealth()
	health.Register("transport", func() error {
		conn, err := net.DialTimeout("tcp", srv.Addr(), 500*time.Millisecond)
		if err != nil {
			return err
		}
		return conn.Close()
	})
	health.RegisterValue("trace.spans_dropped", func() int64 { return int64(tracer.SpansDropped()) })
	health.RegisterValue("trace.tail_kept", func() int64 {
		_, kept := tracer.SamplerStats()
		return int64(kept)
	})
	// One observability handler serves the ops RPC and the -http listener.
	docs := metrics.NewHandler(reg, health, append([]metrics.Mount{
		{Pattern: "/trace", Handler: trace.Handler(tracer)},
		{Pattern: "/events", Handler: trace.EventsHandler(tracer)},
	}, receiver.Mounts()...)...)
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
		log.Printf("metrics on http://%s/metrics, traces on http://%s/trace", maddr, maddr)
		if *pprofOn {
			log.Printf("pprof on http://%s/debug/pprof/", maddr)
		}
	}

	client := &registry.Client{Caller: caller, Addr: *lookup}
	stopAdv, err := receiver.Advertise(client, 30*time.Second, map[string]string{"kind": "plotter"})
	if err != nil {
		return fmt.Errorf("advertise at %s: %w", *lookup, err)
	}
	defer stopAdv()
	log.Printf("advertised adaptation service at lookup %s", *lookup)

	statusClock := clock.Real{}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-statusClock.After(5 * time.Second):
			var names []string
			for _, i := range receiver.Installed() {
				names = append(names, fmt.Sprintf("%s@v%d", i.Name, i.Version))
			}
			x, y := plot.Position()
			log.Printf("pen at (%d,%d), %d cells inked, extensions: %v", x, y, canvas.Count(), names)
		case <-sigCh:
			log.Printf("leaving the hall; final canvas:\n%s", canvas.Render())
			return nil
		}
	}
}
