package transport

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/wire"
)

// MethodOps is the one operator read RPC. It answers a path with what the
// daemon's observability handler serves for an HTTP GET of that path, so an
// operator tool over the RPC fabric sees exactly the bytes curl sees on the
// -http listener.
const MethodOps = "ops"

// OpsReq names the document to read: a path plus optional query, such as
// "/metrics" or "/records?robot=plotter-1".
type OpsReq struct {
	Path string
}

// OpsResp carries the HTTP status and body the handler produced.
type OpsResp struct {
	Status int64
	Body   []byte
}

// MarshalWire encodes r with the wire codec.
func (r OpsReq) MarshalWire(e *wire.Encoder) { e.String(r.Path) }

// UnmarshalWire decodes r from the wire codec.
func (r *OpsReq) UnmarshalWire(d *wire.Decoder) error {
	r.Path = d.String()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r OpsResp) MarshalWire(e *wire.Encoder) {
	e.Varint(r.Status)
	e.Bytes(r.Body)
}

// UnmarshalWire decodes r from the wire codec.
func (r *OpsResp) UnmarshalWire(d *wire.Decoder) error {
	r.Status = d.Varint()
	r.Body = d.Bytes()
	return d.Err()
}

// ServeOps registers MethodOps on mux, serving each request as an HTTP GET of
// its path on h. A path that is not origin-form (a leading "/" and no scheme
// or host) is refused before h runs.
func ServeOps(mux *Mux, h http.Handler) {
	Register(mux, MethodOps, func(ctx context.Context, req OpsReq) (OpsResp, error) {
		u, err := opsURL(req.Path)
		if err != nil {
			return OpsResp{}, err
		}
		r, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
		if err != nil {
			return OpsResp{}, fmt.Errorf("transport: ops %q: %w", req.Path, err)
		}
		w := &opsWriter{header: make(http.Header)}
		h.ServeHTTP(w, r)
		if w.status == 0 {
			w.status = http.StatusOK
		}
		return OpsResp{Status: int64(w.status), Body: w.body.Bytes()}, nil
	})
}

// opsURL parses an ops path, accepting only an origin-form request target:
// one leading "/", so neither a scheme nor a host can follow.
func opsURL(path string) (*url.URL, error) {
	if !strings.HasPrefix(path, "/") || strings.HasPrefix(path, "//") {
		return nil, fmt.Errorf("transport: ops path %q must start with a single /", path)
	}
	u, err := url.ParseRequestURI(path)
	if err != nil {
		return nil, fmt.Errorf("transport: ops path %q: %w", path, err)
	}
	return u, nil
}

// opsWriter records what a handler writes for one ops request.
type opsWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *opsWriter) Header() http.Header { return w.header }

func (w *opsWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *opsWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// Ops reads one document from the daemon at addr over MethodOps. It returns
// the body of a 200 answer; any other status is an error carrying the body's
// text.
func Ops(ctx context.Context, c Caller, addr, path string) ([]byte, error) {
	resp, err := Invoke[OpsReq, OpsResp](ctx, c, addr, MethodOps, OpsReq{Path: path})
	if err != nil {
		return nil, err
	}
	if resp.Status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %d %s", addr, path, resp.Status, strings.TrimSpace(string(resp.Body)))
	}
	return resp.Body, nil
}
