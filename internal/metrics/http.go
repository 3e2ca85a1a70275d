package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Handler serves the registry's snapshot as JSON (expvar-style): counters and
// gauges as flat name → value maps, histograms with bounds, per-bucket counts,
// total count, sum and p50/p95/p99. With ?format=prom it serves the same
// snapshot as Prometheus text exposition instead (see WriteProm).
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req != nil && req.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			WriteProm(w, r.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// WriteText pretty-prints a snapshot, sorted by name: one line per counter
// and gauge, a count/mean summary plus bucket rows per histogram. Used by
// `midasctl metrics` and handy in tests.
func WriteText(w io.Writer, s Snapshot) {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %d\n", n, s.Counters[n])
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %d\n", n, s.Gauges[n])
	}

	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		mean := time.Duration(0)
		if h.Count > 0 {
			mean = time.Duration(h.Sum / int64(h.Count))
		}
		fmt.Fprintf(w, "%-32s count=%d mean=%s p50=%s p95=%s p99=%s\n",
			n, h.Count, mean, time.Duration(h.P50), time.Duration(h.P95), time.Duration(h.P99))
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			if i < len(h.Bounds) {
				fmt.Fprintf(w, "%-32s   <= %-12s %d\n", "", time.Duration(h.Bounds[i]), c)
			} else {
				fmt.Fprintf(w, "%-32s    > %-12s %d\n", "", time.Duration(h.Bounds[len(h.Bounds)-1]), c)
			}
		}
	}
}

// Health aggregates named liveness checks for a /healthz endpoint, plus
// informational values — gauges worth seeing next to the verdict (degraded
// node counts, scheduler backlog, dropped spans) without failing it.
type Health struct {
	mu     sync.Mutex
	checks map[string]func() error
	values map[string]func() int64
}

// NewHealth returns an empty health checker (healthy by definition).
func NewHealth() *Health {
	return &Health{
		checks: make(map[string]func() error),
		values: make(map[string]func() int64),
	}
}

// Register adds (or replaces) a named check. fn returns nil when healthy.
func (h *Health) Register(name string, fn func() error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.checks[name] = fn
}

// RegisterValue adds (or replaces) a named informational value rendered on
// /healthz alongside the checks. Values never affect the health verdict;
// they exist so a degrading fleet is visible where operators already look.
func (h *Health) RegisterValue(name string, fn func() int64) {
	if fn == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.values[name] = fn
}

// Values evaluates every registered informational value.
func (h *Health) Values() map[string]int64 {
	h.mu.Lock()
	fns := make(map[string]func() int64, len(h.values))
	for n, fn := range h.values {
		fns[n] = fn
	}
	h.mu.Unlock()
	out := make(map[string]int64, len(fns))
	for n, fn := range fns {
		out[n] = fn()
	}
	return out
}

// Check runs every registered check and reports per-check errors (nil entry =
// healthy) plus overall health.
func (h *Health) Check() (map[string]error, bool) {
	h.mu.Lock()
	checks := make(map[string]func() error, len(h.checks))
	for n, fn := range h.checks {
		checks[n] = fn
	}
	h.mu.Unlock()

	out := make(map[string]error, len(checks))
	ok := true
	for n, fn := range checks {
		err := fn()
		out[n] = err
		if err != nil {
			ok = false
		}
	}
	return out, ok
}

// Handler serves the check results: HTTP 200 with "ok" per healthy check, 503
// when any check fails.
func (h *Health) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		results, ok := h.Check()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		names := make([]string, 0, len(results))
		for n := range results {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			if err := results[n]; err != nil {
				fmt.Fprintf(w, "%s: %v\n", n, err)
			} else {
				fmt.Fprintf(w, "%s: ok\n", n)
			}
		}
		if len(names) == 0 {
			fmt.Fprintln(w, "ok")
		}
		values := h.Values()
		names = names[:0]
		for n := range values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s: %d\n", n, values[n])
		}
	})
}

// Mount attaches an extra document to a daemon's observability handler:
// tracing endpoints, the fleet view, anything served next to /metrics.
type Mount struct {
	Pattern string
	Handler http.Handler
}

// NewHandler returns a daemon's observability handler: /metrics (the
// registry snapshot), /healthz (the health checks) and the extra mounts. The
// same handler backs the -http listener and the ops RPC.
func NewHandler(r *Registry, h *Health, extra ...Mount) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	if h == nil {
		h = NewHealth()
	}
	mux.Handle("/healthz", h.Handler())
	for _, m := range extra {
		if m.Pattern != "" && m.Handler != nil {
			mux.Handle(m.Pattern, m.Handler)
		}
	}
	return mux
}

// ServeHTTP starts an HTTP server on addr serving h. It returns the bound
// address and a shutdown function. addr may end in ":0" to pick a free port.
func ServeHTTP(addr string, h http.Handler) (string, func(), error) {
	srv := &http.Server{Handler: h}
	ln, err := listen(addr)
	if err != nil {
		return "", nil, err
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
