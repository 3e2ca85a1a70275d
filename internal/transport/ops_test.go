package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// opsDocs is a daemon-shaped observability handler: the metrics and health
// documents plus one echo mount that shows the query it was given.
func opsDocs(hits *int) http.Handler {
	reg := metrics.New()
	reg.Counter("ops.test").Add(3)
	return metrics.NewHandler(reg, nil, metrics.Mount{
		Pattern: "/echo",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			*hits++
			fmt.Fprintf(w, "q=%s", r.URL.Query().Get("q"))
		}),
	})
}

// For every document path, ops returns the status and bytes an HTTP GET of
// the same path gets from the same handler.
func TestOpsMatchesHTTPGet(t *testing.T) {
	var hits int
	docs := opsDocs(&hits)
	mux := NewMux()
	ServeOps(mux, docs)
	fabric := NewInProc()
	stop, err := fabric.Serve("d", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, path := range []string{"/metrics", "/metrics?format=prom", "/healthz", "/echo?q=a%20b", "/nope"} {
		resp, err := Invoke[OpsReq, OpsResp](context.Background(), fabric.Node("ctl"), "d", MethodOps, OpsReq{Path: path})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rec := httptest.NewRecorder()
		docs.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		want, _ := io.ReadAll(rec.Result().Body)
		if resp.Status != int64(rec.Code) || string(resp.Body) != string(want) {
			t.Errorf("%s: ops %d %q, GET %d %q", path, resp.Status, resp.Body, rec.Code, want)
		}
	}
	if body, err := Ops(context.Background(), fabric.Node("ctl"), "d", "/echo?q=x"); err != nil || string(body) != "q=x" {
		t.Fatalf("Ops /echo: %q, %v", body, err)
	}
	if _, err := Ops(context.Background(), fabric.Node("ctl"), "d", "/nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("Ops /nope: err = %v, want a 404 error", err)
	}
}

// The handler behind ops never includes pprof, even where the -http listener
// adds it.
func TestOpsHasNoPprof(t *testing.T) {
	var hits int
	docs := opsDocs(&hits)
	mux := NewMux()
	ServeOps(mux, docs)
	out, err := mux.Handle(context.Background(), MethodOps, marshalOps("/debug/pprof/"))
	if err != nil {
		t.Fatal(err)
	}
	var resp OpsResp
	if err := Decode(out, &resp); err != nil || resp.Status != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ over ops: status %d, err %v; want 404", resp.Status, err)
	}
	rec := httptest.NewRecorder()
	metrics.WithPprof(docs).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/ on the pprof listener: %d, want 200", rec.Code)
	}
}

// A path that is not origin-form is refused before any handler runs.
func TestOpsRejectsMalformedPath(t *testing.T) {
	var hits int
	mux := NewMux()
	ServeOps(mux, opsDocs(&hits))
	for _, path := range []string{"", "echo", "http://evil.example/echo", "//evil.example/echo", "*"} {
		if _, err := mux.Handle(context.Background(), MethodOps, marshalOps(path)); err == nil {
			t.Errorf("path %q: served, want an error", path)
		}
	}
	if hits != 0 {
		t.Fatalf("handler ran %d times for malformed paths", hits)
	}
	if _, err := mux.Handle(context.Background(), MethodOps, []byte("/echo")); !errors.Is(err, ErrDecode) {
		t.Fatalf("non-frame ops body: err = %v, want ErrDecode", err)
	}
}

func marshalOps(path string) []byte { return wire.Marshal(OpsReq{Path: path}) }
