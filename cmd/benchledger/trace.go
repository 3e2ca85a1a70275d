package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aop"
	"repro/internal/lvm"
	"repro/internal/trace"
	"repro/internal/transport"
)

// The traced run times the calls into each layer from wrappers in this
// package: a transport.Caller, a transport.Handler, an lvm.Host and an
// aop.Body, each recording one span per call. Spans stay in memory (up to
// maxSpans, with per-layer totals kept for all of them) and are written out
// when the run ends. A recorder toggles between untraced and traced phases of
// one run; while off, a wrapper costs one atomic load.

// maxSpans bounds the spans kept for the trace file; totals keep counting.
const maxSpans = 1 << 16

// spanRec is one span as written to the trace file. Spans of one operation
// share Op; Parent names the enclosing layer.
type spanRec struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerKey names one layer's spans: the layer and, where it has one, the
// method or host function called.
type layerKey struct{ name, detail string }

func (k layerKey) String() string {
	if k.detail == "" {
		return k.name
	}
	return k.name + " " + k.detail
}

// layerTotal accumulates one layer's traced calls. Span times accumulate
// as measured in pending until the slice they fell in is flushed with its
// quiet-host factor (probe.go).
type layerTotal struct {
	calls   atomic.Int64
	pending atomic.Int64
	quietNs float64 // guarded by recorder.mu
}

// opTrace is one operation in flight. Top-level spans (the operation's direct
// children) may overlap — renewal workers, parallel pushes — so coverage is
// the union of their intervals, tracked by counting calls in flight.
type opTrace struct {
	id    uint64
	start int64

	mu       sync.Mutex
	inflight int
	busyFrom int64
	covered  int64
}

// opSlot publishes the operation a load goroutine is running to the
// wrappers that serve it.
type opSlot struct{ cur atomic.Pointer[opTrace] }

// recorder collects a traced run's spans. Recording takes no lock shared
// across goroutines: the span buffer is preallocated and claimed slot by slot,
// and totals are atomic, so tracing perturbs concurrent workloads little.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	spans       []spanRec
	next        atomic.Int64 // spans claimed, including those past the cap
	ops         atomic.Int64 // traced operations finished
	pendingSelf atomic.Int64 // their time not covered by a top-level span
	calls       atomic.Int64 // layer spans recorded

	mu        sync.RWMutex
	layers    map[layerKey]*layerTotal
	quietSelf float64 // flushed pendingSelf, in quiet-host ns
}

func newRecorder() *recorder {
	return &recorder{
		epoch:  now(),
		spans:  make([]spanRec, maxSpans),
		layers: make(map[layerKey]*layerTotal),
	}
}

func (r *recorder) now() int64 { return int64(since(r.epoch)) }

// beginOp starts an operation on slot when tracing is on; nil otherwise. A nil
// recorder is valid and never traces.
func (r *recorder) beginOp(slot *opSlot) *opTrace {
	if r == nil || !r.on.Load() {
		return nil
	}
	op := &opTrace{id: r.ids.Add(1), start: r.now()}
	slot.cur.Store(op)
	return op
}

// endOp finishes op (nil-safe) and records it as the operation's root span.
func (r *recorder) endOp(slot *opSlot, op *opTrace, name string) {
	if op == nil {
		return
	}
	slot.cur.Store(nil)
	end := r.now()
	op.mu.Lock()
	self := end - op.start - op.covered
	op.mu.Unlock()
	r.ops.Add(1)
	r.pendingSelf.Add(self)
	r.keep(spanRec{Op: op.id, Name: name, Start: op.start, End: end})
}

// enter marks a span's start; top-level spans extend op's coverage.
func (r *recorder) enter(op *opTrace, top bool) int64 {
	t := r.now()
	if op != nil && top {
		op.mu.Lock()
		if op.inflight == 0 {
			op.busyFrom = t
		}
		op.inflight++
		op.mu.Unlock()
	}
	return t
}

// exit records a span that started at start.
func (r *recorder) exit(op *opTrace, top bool, name, parent, detail string, start int64) {
	end := r.now()
	var id uint64
	if op != nil {
		id = op.id
		if top {
			op.mu.Lock()
			op.inflight--
			if op.inflight == 0 {
				op.covered += end - op.busyFrom
			}
			op.mu.Unlock()
		}
	}
	t := r.total(layerKey{name, detail})
	t.calls.Add(1)
	t.pending.Add(end - start)
	r.calls.Add(1)
	r.keep(spanRec{Op: id, Name: name, Parent: parent, Detail: detail, Start: start, End: end})
}

func (r *recorder) total(k layerKey) *layerTotal {
	r.mu.RLock()
	t := r.layers[k]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.layers[k]; t == nil {
		t = &layerTotal{}
		r.layers[k] = t
	}
	return t
}

func (r *recorder) keep(s spanRec) {
	if i := r.next.Add(1) - 1; i < maxSpans {
		r.spans[i] = s
	}
}

// kept is how many spans the buffer holds and how many were dropped.
func (r *recorder) kept() (n, dropped int64) {
	claimed := r.next.Load()
	return min(claimed, maxSpans), max(claimed-maxSpans, 0)
}

// flush converts the span time recorded since the last flush to quiet-host
// time with factor f. A nil recorder is valid.
func (r *recorder) flush(f float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range r.layers {
		t.quietNs += float64(t.pending.Swap(0)) * f
	}
	r.quietSelf += float64(r.pendingSelf.Swap(0)) * f
}

// layerReport is one layer's totals, for printing.
type layerReport struct {
	name    string
	calls   int64
	quietNs float64
}

// layerStats returns the flushed per-layer totals sorted by name, and the
// operations' flushed self time.
func (r *recorder) layerStats() ([]layerReport, float64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]layerReport, 0, len(r.layers))
	for k, t := range r.layers {
		out = append(out, layerReport{k.String(), t.calls.Load(), t.quietNs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, r.quietSelf
}

// writeSpans writes every kept span as one JSON object per line. Call it
// once tracing is off.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n, _ := r.kept()
	for _, s := range r.spans[:n] {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// opSpanID marks a trace context stamped by opContext.
const opSpanID = "benchledger-op"

// opContext stamps op's identity on a ctx that carries no trace context yet;
// the TCP fabric carries it to the server, so server-side spans of a client
// call join the operation. A ctx the platform already traces is left alone.
func opContext(ctx context.Context, op *opTrace) context.Context {
	if op == nil {
		return ctx
	}
	if _, traced := trace.FromContext(ctx); traced {
		return ctx
	}
	return trace.NewContext(ctx, trace.SpanContext{TraceID: fmt.Sprintf("%032x", op.id), SpanID: opSpanID})
}

// opFromContext recovers an operation id stamped by opContext (0 if none).
func opFromContext(ctx context.Context) uint64 {
	sc, ok := trace.FromContext(ctx)
	if !ok || sc.SpanID != opSpanID {
		return 0
	}
	id, err := strconv.ParseUint(sc.TraceID, 16, 64)
	if err != nil {
		return 0
	}
	return id
}

// spanCaller records a span around every call through inner.
type spanCaller struct {
	inner        transport.Caller
	rec          *recorder
	slot         *opSlot
	name, parent string
	top          bool
}

func (c *spanCaller) Call(ctx context.Context, to, method string, req, resp any) error {
	if !c.rec.on.Load() {
		return c.inner.Call(ctx, to, method, req, resp)
	}
	op := c.slot.cur.Load()
	start := c.rec.enter(op, c.top)
	err := c.inner.Call(opContext(ctx, op), to, method, req, resp)
	c.rec.exit(op, c.top, c.name, c.parent, method, start)
	return err
}

// spanHandler records a span around every request inner serves. The
// operation comes from the request's trace context when the caller stamped
// one, else from slot; it is republished on serve for nested layers.
type spanHandler struct {
	inner        transport.Handler
	rec          *recorder
	slot, serve  *opSlot
	name, parent string
}

func (h *spanHandler) Handle(ctx context.Context, method string, body []byte) ([]byte, error) {
	if !h.rec.on.Load() {
		return h.inner.Handle(ctx, method, body)
	}
	op := h.slot.cur.Load()
	if id := opFromContext(ctx); id != 0 && (op == nil || op.id != id) {
		op = &opTrace{id: id} // a detached handle: spans carry the id only
	}
	if h.serve != nil {
		h.serve.cur.Store(op)
	}
	start := h.rec.enter(op, false)
	out, err := h.inner.Handle(ctx, method, body)
	h.rec.exit(op, false, h.name, h.parent, method, start)
	return out, err
}

// spanHost records a span around every host call the sandbox lets through.
type spanHost struct {
	inner  lvm.Host
	rec    *recorder
	slot   *opSlot
	parent string
}

func (h *spanHost) HostCall(name string, args []lvm.Value) (lvm.Value, error) {
	if !h.rec.on.Load() {
		return h.inner.HostCall(name, args)
	}
	op := h.slot.cur.Load()
	start := h.rec.enter(op, false)
	v, err := h.inner.HostCall(name, args)
	h.rec.exit(op, false, "sandbox.hostcall", h.parent, name, start)
	return v, err
}

// spanBody records a span around every execution of an advice body.
type spanBody struct {
	inner        aop.Body
	rec          *recorder
	slot         *opSlot
	name, parent string
}

func (b *spanBody) Exec(ctx *aop.Context) error {
	if !b.rec.on.Load() {
		return b.inner.Exec(ctx)
	}
	op := b.slot.cur.Load()
	start := b.rec.enter(op, false)
	err := b.inner.Exec(ctx)
	b.rec.exit(op, false, b.name, b.parent, "", start)
	return err
}
