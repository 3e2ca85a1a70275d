// Integration test for the operator read RPC: a base station's observability
// handler, assembled the way cmd/basestation assembles it, serves every
// document identically over ops and over HTTP.
package repro

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/ext"
	"repro/internal/metrics"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
)

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

	for _, path := range []string{
		"/metrics", "/metrics?format=prom", "/healthz",
		"/trace", "/trace?q=" + sp.Context().TraceID, "/events", "/events?component=ops",
		"/fleet", "/status",
		"/analyze?ext=logger", "/analyze?ext=missing",
		"/records", "/records?robot=robot:2",
	} {
		resp, err := transport.Invoke[transport.OpsReq, transport.OpsResp](context.Background(),
			fabric.Node("ctl"), "hall-1", transport.MethodOps, transport.OpsReq{Path: path})
		if err != nil {
			t.Fatalf("ops %s: %v", path, err)
		}
		rec := httptest.NewRecorder()
		docs.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		want, _ := io.ReadAll(rec.Result().Body)
		if resp.Status != int64(rec.Code) || string(resp.Body) != string(want) {
			t.Errorf("%s: ops %d\n%s\nGET %d\n%s", path, resp.Status, resp.Body, rec.Code, want)
		}
		if len(want) == 0 {
			t.Errorf("%s: empty document", path)
		}
	}
}
