package metrics

import (
	"net/http"
	"net/http/pprof"
)

// WithPprof returns h with the standard net/http/pprof handlers added under
// /debug/pprof/, for the -http listener only: the ops RPC serves h itself,
// so profiling never reaches the RPC fabric. Callers should gate this behind
// a flag: the profile endpoints are debugging surface and cost CPU while
// sampled.
func WithPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
