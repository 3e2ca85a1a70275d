// Integration tests for the operator read RPC and the node's RPC surface: a
// base station's and a node's observability handlers, assembled the way
// cmd/basestation and cmd/node assemble them, serve every document
// identically over ops and over HTTP.
package repro

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/metrics"
	"repro/internal/plotter"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/weave"
)

// cmdNode is a node assembled the way cmd/node assembles one: the plotter
// service and the adaptation receiver on one mux, and one observability
// handler, with the receiver's documents, that the ops RPC serves.
type cmdNode struct {
	receiver *core.Receiver
	mux      *transport.Mux
	docs     http.Handler
}

func newCmdNode(t *testing.T, name string, trusted *sign.Signer) *cmdNode {
	t.Helper()
	weaver := weave.New()
	plot, err := plotter.New(weaver, plotter.NewCanvas(40, 20))
	if err != nil {
		t.Fatal(err)
	}
	services := svc.NewRegistry(weaver)
	plot.RegisterService(services)
	trust := sign.NewTrustStore()
	trust.Trust("base", trusted.PublicKey())
	builtins := core.NewBuiltins()
	ext.RegisterAll(builtins)
	receiver, err := core.NewReceiver(core.ReceiverConfig{
		NodeName: name,
		Addr:     name,
		Weaver:   weaver,
		Trust:    trust,
		Policy:   sandbox.AllowAll(),
		Host:     ext.NewNodeHost(ext.NodeHostConfig{Clock: clock.Real{}}),
		Builtins: builtins,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	tracer := trace.New(1)
	receiver.Instrument(reg)
	receiver.Trace(tracer)
	mux := transport.NewMux()
	services.ServeOn(mux)
	receiver.ServeOn(mux)
	receiver.Grantor().Start(time.Second)
	t.Cleanup(receiver.Grantor().Stop)
	docs := metrics.NewHandler(reg, metrics.NewHealth(), append([]metrics.Mount{
		{Pattern: "/trace", Handler: trace.Handler(tracer)},
		{Pattern: "/events", Handler: trace.EventsHandler(tracer)},
	}, receiver.Mounts()...)...)
	transport.ServeOps(mux, docs)
	return &cmdNode{receiver: receiver, mux: mux, docs: docs}
}

func TestOpsServesEveryDocumentLikeHTTP(t *testing.T) {
	fabric := transport.NewInProc()
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	db := store.NewMemory()
	for _, r := range []store.Record{
		{Robot: "robot:1", Device: "motor:x", Action: "rotate", Value: 30, AtMillis: 1000},
		{Robot: "robot:2", Device: "motor:y", Action: "rotate", Value: -4, AtMillis: 2000},
	} {
		if _, err := db.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	base, err := core.NewBase(core.BaseConfig{Name: "hall-1", Addr: "hall-1", Caller: fabric.Node("hall-1"), Signer: signer, Store: db})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(base.Close)
	if err := base.AddExtension(core.Extension{
		ID: "hall-1/logger-0", Name: "logger", Version: 1,
		Advices: []core.AdviceSpec{{Name: "log", Kind: core.KindCallBefore, Pattern: "*.*(..)", Builtin: ext.BLogger}},
		Caps:    []string{"log"},
	}); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	base.Instrument(reg)
	tracer := trace.New(1)
	ctx, sp := tracer.StartSpan(context.Background(), "ops.test")
	tracer.Eventf(ctx, "ops", "one event")
	sp.End(nil)
	health := metrics.NewHealth()
	health.RegisterValue("base.renewal_backlog", func() int64 { return int64(base.RenewalBacklog()) })

	docs := metrics.NewHandler(reg, health, append([]metrics.Mount{
		{Pattern: "/trace", Handler: trace.Handler(tracer)},
		{Pattern: "/events", Handler: trace.EventsHandler(tracer)},
	}, base.Mounts()...)...)
	mux := transport.NewMux()
	base.ServeOn(mux)
	transport.ServeOps(mux, docs)
	stop, err := fabric.Serve("hall-1", mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)

	// A node the base adapts, so its /extensions document lists the logger.
	node := newCmdNode(t, "robot-1", signer)
	stopNode, err := fabric.Serve("robot-1", node.mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopNode)
	if err := base.AdaptNode("robot-1", "robot-1"); err != nil {
		t.Fatal(err)
	}

	for _, d := range []struct {
		addr  string
		docs  http.Handler
		paths []string
	}{
		{"hall-1", docs, []string{
			"/metrics", "/metrics?format=prom", "/healthz",
			"/trace", "/trace?q=" + sp.Context().TraceID, "/events", "/events?component=ops",
			"/fleet", "/status",
			"/analyze?ext=logger", "/analyze?ext=missing",
			"/records", "/records?robot=robot:2",
		}},
		{"robot-1", node.docs, []string{
			"/metrics", "/metrics?format=prom", "/healthz",
			"/trace?q=logger", "/events",
			"/extensions",
		}},
	} {
		for _, path := range d.paths {
			resp, err := transport.Invoke[transport.OpsReq, transport.OpsResp](context.Background(),
				fabric.Node("ctl"), d.addr, transport.MethodOps, transport.OpsReq{Path: path})
			if err != nil {
				t.Fatalf("%s ops %s: %v", d.addr, path, err)
			}
			rec := httptest.NewRecorder()
			d.docs.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			want, _ := io.ReadAll(rec.Result().Body)
			if resp.Status != int64(rec.Code) || string(resp.Body) != string(want) {
				t.Errorf("%s %s: ops %d\n%s\nGET %d\n%s", d.addr, path, resp.Status, resp.Body, rec.Code, want)
			}
			if len(want) == 0 {
				t.Errorf("%s %s: empty document", d.addr, path)
			}
		}
	}
	body, err := transport.Ops(context.Background(), fabric.Node("ctl"), "robot-1", "/extensions")
	if err != nil || !strings.Contains(string(body), `"Name": "logger"`) {
		t.Errorf("robot-1 /extensions = %s (%v), want the adapted logger listed", body, err)
	}
}

// TestNodeRPCSurface pins what a node built like cmd/node's serves: the
// receiver's four lifecycle methods, the plotter's service invocations and
// the ops RPC. Pushes and revokes ride midas.applyBatch, and the extension
// list is the /extensions document, so nothing else is served.
func TestNodeRPCSurface(t *testing.T) {
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	got := newCmdNode(t, "robot-1", signer).mux.Methods()
	sort.Strings(got)
	want := []string{
		core.MethodApplyBatch, core.MethodInventory, core.MethodRenewE, core.MethodRenewBatch,
		transport.MethodOps, svc.MethodInvoke,
	}
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("node serves %v, want %v", got, want)
	}
}
