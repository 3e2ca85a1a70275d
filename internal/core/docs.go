package core

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/metrics"
	"repro/internal/store"
)

// Mounts returns the base's operator documents as JSON, for the daemon's
// observability handler (the -http listener and the ops RPC serve the same
// handler):
//
//	/fleet              FleetStatus, the merged fleet view
//	/status             Status, per-node health and reconciliation
//	/analyze?ext=NAME   the stored admission analysis of one extension
//	/records?robot=ID   the movement database, optionally for one robot
func (b *Base) Mounts() []metrics.Mount {
	return []metrics.Mount{
		{Pattern: "/fleet", Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, b.FleetStatus())
		})},
		{Pattern: "/status", Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, b.Status())
		})},
		{Pattern: "/analyze", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			name := r.URL.Query().Get("ext")
			rep, ok := b.AnalysisFor(name)
			if !ok {
				http.Error(w, fmt.Sprintf("core: base %s has no analysis for extension %q", b.cfg.Name, name), http.StatusNotFound)
				return
			}
			writeJSON(w, rep)
		})},
		{Pattern: "/records", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if b.cfg.Store == nil {
				http.Error(w, fmt.Sprintf("core: base %s has no store", b.cfg.Name), http.StatusNotFound)
				return
			}
			recs := b.cfg.Store.Query(store.Filter{Robot: r.URL.Query().Get("robot")})
			if recs == nil {
				recs = []store.Record{}
			}
			writeJSON(w, recs)
		})},
	}
}

// Mounts returns the receiver's operator documents as JSON, for the node
// daemon's observability handler (the -http listener and the ops RPC serve
// the same handler):
//
//	/extensions         Installed, the extensions the node holds
func (r *Receiver) Mounts() []metrics.Mount {
	return []metrics.Mount{
		{Pattern: "/extensions", Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, r.Installed())
		})},
	}
}

// writeJSON renders v as indented JSON, the shape every document shares.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
