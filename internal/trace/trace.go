// Package trace is a dependency-free distributed tracer for the MIDAS
// lifecycle. It mints trace/span IDs from a seeded source (so a simnet run on
// the manual clock is bit-for-bit reproducible), records spans in a bounded
// in-memory ring with consistent snapshots, and keeps a structured event ring
// (Eventf) for point-in-time facts that do not deserve a span.
//
// At fleet scale recording every span thrashes the ring, so a tracer can run
// a head sampler (SetSampler): the keep/drop decision is made once per trace
// at the root — a pure function of the sampler seed and the trace ID, so a
// same-seed replay reproduces every decision bit for bit — and carried to
// every child span as a sampled bit in the SpanContext, across goroutines and
// all RPC fabrics. Sampled-out spans never touch the ring; a tail-keep pass
// at End still rescues error spans and slow spans (>= SlowThreshold), so the
// interesting traces survive any sampling rate.
//
// Like internal/metrics, every method is nil-safe: a nil *Tracer and a nil
// *Span are no-ops, so libraries thread tracers through without nil checks.
// Trace context crosses goroutines and the RPC fabric as a SpanContext value
// carried in a context.Context (and, over TCP, in the request envelope).
package trace

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Sampling bits carried in SpanContext.Flags. Legacy peers that predate
// sampling always send zero flags, which reads as "no decision present".
const (
	// FlagSampleKnown marks that a head-sampling decision travelled with the
	// span context. Without it the other bits are meaningless and a sampling
	// tracer decides locally from the trace ID.
	FlagSampleKnown uint8 = 1 << 0
	// FlagSampled marks the trace sampled in (record every span).
	FlagSampled uint8 = 1 << 1
)

// SpanContext identifies a span within a trace. It is a plain value type
// that every fabric carries beside the request body. The zero value means
// "no trace".
type SpanContext struct {
	TraceID string
	SpanID  string
	// Flags carries the head-sampling decision across process boundaries
	// (see FlagSampleKnown). Zero — what every legacy peer sends — means no
	// decision travelled, and the receiving tracer resolves one locally from
	// the trace ID, which same-seed tracers resolve identically.
	Flags uint8
}

// Valid reports whether sc refers to a real span.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// SampleDecision unpacks the sampling bits: known reports whether a decision
// travelled with the context, sampled is that decision (meaningless when
// !known).
func (sc SpanContext) SampleDecision() (sampled, known bool) {
	return sc.Flags&FlagSampled != 0, sc.Flags&FlagSampleKnown != 0
}

type ctxKey struct{}

// spanCtx is the context NewContext returns. Unlike context.WithValue, which
// would box the SpanContext in a second allocation, it holds sc inline and
// answers ctxKey with a pointer to it.
type spanCtx struct {
	context.Context
	sc SpanContext
}

// Value implements context.Context.
func (c *spanCtx) Value(key any) any {
	if key == (ctxKey{}) {
		return &c.sc
	}
	return c.Context.Value(key)
}

// ContextValue answers a context's Value(key) for a span context the
// context holds inline: it returns &sc for the key FromContext looks up and
// reports false for any other key. It lets another package fold a span
// context into its own call-scoped context instead of wrapping it with
// NewContext, which costs an allocation per call.
func ContextValue(key any, sc *SpanContext) (any, bool) {
	if key == (ctxKey{}) {
		return sc, true
	}
	return nil, false
}

// NewContext returns ctx carrying sc. An invalid sc returns ctx unchanged.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &spanCtx{Context: ctx, sc: sc}
}

// FromContext extracts the span context carried by ctx, if any.
func FromContext(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	sc, ok := ctx.Value(ctxKey{}).(*SpanContext)
	if !ok {
		return SpanContext{}, false
	}
	return *sc, sc.Valid()
}

// Detach returns a fresh background context carrying only the span context of
// ctx (if any). Use it when handing work to a goroutine that must outlive the
// request but stay in its trace.
func Detach(ctx context.Context) context.Context {
	sc, ok := FromContext(ctx)
	if !ok {
		return context.Background()
	}
	return NewContext(context.Background(), sc)
}

// Annotation is a timestamped note attached to a span.
type Annotation struct {
	AtUnixNano int64
	Msg        string
}

// SpanSnapshot is the immutable exported view of a span.
type SpanSnapshot struct {
	TraceID       string
	SpanID        string
	ParentID      string
	Name          string
	Tags          map[string]string
	StartUnixNano int64
	EndUnixNano   int64 // 0 while the span is still open
	Err           string
	Annotations   []Annotation
}

// Duration returns the span's elapsed time, or 0 if it has not ended.
func (s SpanSnapshot) Duration() time.Duration {
	if s.EndUnixNano == 0 {
		return 0
	}
	return time.Duration(s.EndUnixNano - s.StartUnixNano)
}

// Span is a live span handle. All methods are nil-safe no-ops.
type Span struct {
	tr    *Tracer
	flags uint8 // sampling bits stamped on every context derived from this span

	mu     sync.Mutex
	lazy   bool  // sampled out: not in the ring unless tail-keep rescues it
	slowNs int64 // tail-keep threshold captured at start (lazy spans only)
	tags   []tagKV
	snap   SpanSnapshot
}

// tagKV stages one Tag call. Tags live in this flat slice while the span is
// hot and become the snapshot's map only when somebody reads it — sampled-out
// spans, the fleet's steady state, then never pay for a map at all.
type tagKV struct{ k, v string }

// Context returns the span's identity for propagation. A nil span returns the
// zero SpanContext.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lazy && s.snap.SpanID == "" {
		// Sampled-out spans defer ID minting; propagation needs one now.
		s.snap.SpanID = s.tr.lazyID()
	}
	return SpanContext{TraceID: s.snap.TraceID, SpanID: s.snap.SpanID, Flags: s.flags}
}

// Tag sets a key/value label on the span.
func (s *Span) Tag(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tags == nil {
		// Spans carry one or two tags almost always; size for that and let
		// append grow the rare outlier.
		s.tags = make([]tagKV, 0, 2)
	}
	s.tags = append(s.tags, tagKV{key, value})
}

// Annotatef appends a timestamped note to the span.
func (s *Span) Annotatef(format string, args ...any) {
	if s == nil {
		return
	}
	at := s.tr.nowNanos()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap.Annotations = append(s.snap.Annotations, Annotation{AtUnixNano: at, Msg: fmt.Sprintf(format, args...)})
}

// End closes the span, recording err (nil for success). A sampled-out span
// is discarded here unless tail-keep applies: spans that ended in error, and
// spans at or over the sampler's SlowThreshold, always enter the ring
// regardless of the head decision.
//
// A span must not be used after End returns: discarded sampled-out spans are
// recycled, so a late Tag, Annotatef, or second End would land on an
// unrelated span.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	at := s.tr.nowNanos()
	s.mu.Lock()
	if s.snap.EndUnixNano != 0 {
		s.mu.Unlock()
		return
	}
	s.snap.EndUnixNano = at
	if err != nil {
		s.snap.Err = err.Error()
	}
	keep := s.lazy && (s.snap.Err != "" || (s.slowNs > 0 && at-s.snap.StartUnixNano >= s.slowNs))
	if keep {
		if s.snap.SpanID == "" {
			s.snap.SpanID = s.tr.lazyID()
		}
		s.lazy = false
	}
	discard := s.lazy
	s.mu.Unlock()
	if keep {
		s.tr.tailKept.Add(1)
		s.tr.insert(s)
	} else if discard {
		lazyPool.Put(s)
	}
}

func (s *Span) snapshot() SpanSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.snap
	if len(s.tags) > 0 {
		out.Tags = make(map[string]string, len(s.tags))
		for _, t := range s.tags {
			// Append order: a repeated key keeps its last value, map semantics.
			out.Tags[t.k] = t.v
		}
	}
	if s.snap.Annotations != nil {
		out.Annotations = append([]Annotation(nil), s.snap.Annotations...)
	}
	return out
}

// Ring capacities of every tracer.
const (
	DefaultSpanCapacity  = 4096
	DefaultEventCapacity = 2048
)

// SamplerConfig describes head sampling with tail-keep. Rate is the fraction
// of new traces recorded (clamped to [0,1]; 1 records everything, 0 records
// only what tail-keep rescues). Seed feeds the decision hash so a fleet of
// same-seed tracers — and a replay — resolves every trace identically.
// SlowThreshold is the tail-keep latency bound: a span at or over it is
// recorded even when its trace was sampled out (0 rescues only errors).
type SamplerConfig struct {
	Rate          float64
	Seed          int64
	SlowThreshold time.Duration
}

// sampler is the immutable compiled form, swapped atomically on the tracer.
type sampler struct {
	threshold uint64 // keep when mixed trace-ID hash < threshold
	seed      uint64
	slowNs    int64
}

// keep is the head decision: a pure function of (seed, traceID), so every
// tracer sharing a seed — local or across the fabric — agrees, and a replay
// reproduces the run's decisions bit for bit. The trace ID may still be the
// digits StartRootSpan has not made a string yet.
func keep[ID string | []byte](s *sampler, traceID ID) bool {
	switch s.threshold {
	case math.MaxUint64:
		return true
	case 0:
		return false
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(traceID); i++ {
		h ^= uint64(traceID[i])
		h *= prime64
	}
	return mix64(h^s.seed) < s.threshold
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche mix so every bit
// of the FNV hash and seed lands in the thresholded comparison.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Tracer mints IDs, records spans and buffers events. The zero value is not
// usable; construct with New. A nil *Tracer is a no-op everywhere.
type Tracer struct {
	nowFn      atomic.Pointer[func() time.Time]
	smp        atomic.Pointer[sampler] // nil: sampling off, record everything
	sampledOut atomic.Uint64
	tailKept   atomic.Uint64
	lazySeq    atomic.Uint64
	lazySalt   uint64

	mu        sync.Mutex
	rng       *rand.Rand
	spans     []*Span // ring: oldest at spanNext when full
	spanNext  int
	spanFull  bool
	dropped   uint64
	events    []Event // ring, same scheme
	eventNext int
	eventFull bool
	eventSeq  uint64
	spanCap   int
	eventCap  int
}

// New returns a tracer whose IDs are minted from seed. Daemons seed from the
// wall clock; deterministic tests pass a fixed seed so replayed runs mint
// identical IDs.
func New(seed int64) *Tracer {
	t := &Tracer{
		rng:      rand.New(rand.NewSource(seed)),
		spanCap:  DefaultSpanCapacity,
		eventCap: DefaultEventCapacity,
		lazySalt: mix64(uint64(seed) ^ 0x9e3779b97f4a7c15),
	}
	t.storeNow(time.Now) //lint:allow clockcheck (SetNow overrides; wall clock is the right default)
	return t
}

// SetNow replaces the tracer's time source (e.g. a manual clock's Now).
// Call before the tracer is shared. A nil tracer or nil now is a no-op.
//
//lint:allow shipped (test seam: trace tests pin span timestamps to a fixed or manual clock)
func (t *Tracer) SetNow(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.storeNow(now)
}

func (t *Tracer) storeNow(fn func() time.Time) { t.nowFn.Store(&fn) }

// SetSampler installs (or replaces) the head sampler. Without one — the
// default — every span is recorded, and span contexts carry no sampling
// decision, exactly as before sampling existed. A nil tracer is a no-op.
func (t *Tracer) SetSampler(cfg SamplerConfig) {
	if t == nil {
		return
	}
	s := &sampler{seed: mix64(uint64(cfg.Seed)), slowNs: int64(cfg.SlowThreshold)}
	switch {
	case cfg.Rate >= 1:
		s.threshold = math.MaxUint64
	case cfg.Rate <= 0:
		s.threshold = 0
	default:
		s.threshold = uint64(cfg.Rate * float64(math.MaxUint64))
	}
	t.smp.Store(s)
}

// SamplerStats reports how many spans the head sampler dropped at start and
// how many of those tail-keep rescued into the ring (errors and slow spans).
func (t *Tracer) SamplerStats() (sampledOut, tailKept uint64) {
	if t == nil {
		return 0, 0
	}
	return t.sampledOut.Load(), t.tailKept.Load()
}

func (t *Tracer) nowNanos() int64 {
	if t == nil {
		return 0
	}
	fn := t.nowFn.Load()
	if fn == nil {
		return 0
	}
	return (*fn)().UnixNano()
}

// lazyID mints a span ID for a sampled-out span outside the shared RNG, so
// the sampled-in ID sequence — and with it any same-seed replay of recorded
// spans — is independent of how many sampled-out spans needed IDs.
func (t *Tracer) lazyID() string {
	if t == nil {
		return ""
	}
	var id [16]byte
	t.putLazyID(id[:])
	return string(id[:])
}

// putLazyID writes the next lazy span ID's 16 digits to dst.
func (t *Tracer) putLazyID(dst []byte) {
	putHex16(dst, mix64(t.lazySalt^t.lazySeq.Add(1)))
}

// hex16 renders v as exactly 16 lowercase hex digits — what %016x produces,
// without fmt's formatting machinery. IDs are minted on every traced RPC, so
// this shows up at fleet scale.
func hex16(v uint64) string {
	var b [16]byte
	putHex16(b[:], v)
	return string(b[:])
}

func putHex16(dst []byte, v uint64) {
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		dst[i] = digits[v&0xf]
		v >>= 4
	}
}

// StartSpan opens a span named name. If ctx carries a span context the new
// span joins that trace as a child; otherwise it roots a new trace. It
// returns a derived context carrying the new span (for propagation) and the
// span handle. On a nil tracer it returns (ctx, nil) — both safe to use.
//
// With a sampler installed the root resolves the trace's head decision and
// every descendant inherits it from the context — including across the RPC
// fabric. Sampled-out spans are cheap: pooled, no span ID up front, the ring is never
// touched, and on a child the caller's context is returned as-is (the next
// hop re-parents to the nearest sampled ancestor; End may still tail-keep).
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	parent, _ := FromContext(ctx)

	smp := t.smp.Load()
	if smp == nil {
		// No sampler: record unconditionally, pass inbound flags through so
		// an unsampled middle hop does not erase the root's decision.
		return t.startRecorded(ctx, parent, parent.Flags, name)
	}

	sampled, known := parent.SampleDecision()
	root := parent.TraceID == ""
	if root {
		// Root span: mint the trace ID first, then derive the decision from
		// it — a same-seed replay mints the same IDs, hence decides alike.
		parent.TraceID = t.mintTraceID()
	}
	if !known {
		// No decision travelled (new root, or a parent from a legacy peer):
		// resolve it here from the trace ID.
		sampled = keep(smp, parent.TraceID)
	}
	flags := FlagSampleKnown
	if sampled {
		flags |= FlagSampled
	}
	if sampled {
		return t.startRecorded(ctx, parent, flags, name)
	}

	sp := t.newLazy(parent, flags, name, smp.slowNs)
	if known && parent.Flags == flags && !root {
		// The inbound context already names this trace and carries this very
		// decision: reuse it and keep the sampled-out fast path free of
		// context and ID allocations.
		return ctx, sp
	}
	return NewContext(ctx, sp.Context()), sp
}

// StartSpanFrom starts a span as a child of a remembered SpanContext without
// threading a context.Context — the fan-out shape, where batch work spawns
// one short span per item off a parent captured earlier and nothing
// downstream needs propagation. Sampling semantics match StartSpan exactly
// (same decisions, same RNG draws, so replays stay bit-identical); only the
// context plumbing is skipped, which keeps the sampled-out fan-out at a
// single allocation per span.
func (t *Tracer) StartSpanFrom(parent SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	smp := t.smp.Load()
	if smp == nil {
		return t.newRecorded(parent, parent.Flags, name)
	}
	sampled, known := parent.SampleDecision()
	if parent.TraceID == "" {
		parent.TraceID = t.mintTraceID()
	}
	if !known {
		sampled = keep(smp, parent.TraceID)
	}
	flags := FlagSampleKnown
	if sampled {
		flags |= FlagSampled
	}
	if sampled {
		return t.newRecorded(parent, flags, name)
	}
	return t.newLazy(parent, flags, name, smp.slowNs)
}

// StartRootSpan opens a root span, like StartSpanFrom(SpanContext{}, name),
// for a caller that will propagate its context. A sampled-out root mints its
// span ID at once, and its trace and span IDs share one allocation, where
// StartSpanFrom and the first Context would pay one each. The IDs and the
// decision are the ones those two calls produce.
func (t *Tracer) StartRootSpan(name string) *Span {
	if t == nil {
		return nil
	}
	smp := t.smp.Load()
	if smp == nil {
		return t.newRecorded(SpanContext{}, 0, name)
	}
	// The trace ID's digits are hashed for the decision before they become a
	// string, so a sampled-out root converts trace and span ID at once.
	var ids [48]byte
	t.putTraceID(ids[:32])
	if keep(smp, ids[:32]) {
		return t.newRecorded(SpanContext{TraceID: string(ids[:32])}, FlagSampleKnown|FlagSampled, name)
	}
	t.putLazyID(ids[32:])
	both := string(ids[:])
	sp := t.newLazy(SpanContext{TraceID: both[:32]}, FlagSampleKnown, name, smp.slowNs)
	sp.snap.SpanID = both[32:]
	return sp
}

// Tag is one key/value label of a span recorded by Child.
type Tag struct{ Key, Value string }

// Child records a span that is already over as a child of parent: the
// per-item span of a batch, whose work the batch's call did. It is
// StartSpanFrom, one Tag per tag and End(err) in one call, with one
// shortcut: when parent carries a sampled-out decision and err is nil, the
// span would be discarded at End, so Child only counts it in SamplerStats,
// with no pool, clock read or lock. Such a span opens and closes within the
// call, so it can never have been slow enough to tail-keep. A failed child of
// a sampled-out parent is still tail-kept, a child of a sampled-in parent is
// recorded, and a parent with no decision takes the full path, so same-seed
// replays mint the same IDs.
func (t *Tracer) Child(parent SpanContext, name string, err error, tags ...Tag) {
	if t == nil {
		return
	}
	if sampled, known := parent.SampleDecision(); known && !sampled && err == nil && t.smp.Load() != nil {
		t.sampledOut.Add(1)
		return
	}
	sp := t.StartSpanFrom(parent, name)
	for _, tg := range tags {
		sp.Tag(tg.Key, tg.Value)
	}
	sp.End(err)
}

// lazyPool recycles sampled-out spans. The fleet steady state starts and
// discards hundreds of thousands of them per renewal window; recycling keeps
// that churn off the garbage collector. Tail-kept spans enter the ring and
// are never pooled.
var lazyPool = sync.Pool{New: func() any { return new(Span) }}

// newLazy builds a sampled-out span from the pool and counts it.
func (t *Tracer) newLazy(parent SpanContext, flags uint8, name string, slowNs int64) *Span {
	t.sampledOut.Add(1)
	sp := lazyPool.Get().(*Span)
	sp.tr = t
	sp.flags = flags
	sp.lazy = true
	sp.slowNs = slowNs
	sp.tags = sp.tags[:0]
	sp.snap = SpanSnapshot{
		TraceID:       parent.TraceID,
		ParentID:      parent.SpanID,
		Name:          name,
		StartUnixNano: t.nowNanos(),
	}
	return sp
}

// startRecorded is the record-unconditionally path: IDs from the seeded RNG,
// a ring slot up front, flags stamped for propagation.
func (t *Tracer) startRecorded(ctx context.Context, parent SpanContext, flags uint8, name string) (context.Context, *Span) {
	sp := t.newRecorded(parent, flags, name)
	return NewContext(ctx, SpanContext{TraceID: sp.snap.TraceID, SpanID: sp.snap.SpanID, Flags: flags}), sp
}

// newRecorded mints IDs and takes a ring slot — shared by the context-carried
// and context-free start paths. Span IDs come from the seeded RNG, whose draw
// order is part of the replay contract; recorded spans are its only consumer,
// so the sampled-in ID sequence never shifts with the sampled-out load.
func (t *Tracer) newRecorded(parent SpanContext, flags uint8, name string) *Span {
	traceID := parent.TraceID
	if traceID == "" {
		traceID = t.mintTraceID()
	}
	t.mu.Lock()
	spanID := hex16(t.rng.Uint64())
	t.mu.Unlock()

	sp := &Span{tr: t, flags: flags}
	sp.snap = SpanSnapshot{
		TraceID:       traceID,
		SpanID:        spanID,
		ParentID:      parent.SpanID,
		Name:          name,
		StartUnixNano: t.nowNanos(),
	}
	t.insert(sp)
	return sp
}

// mintTraceID mints a root trace ID from the tracer's salted sequence, not
// the shared RNG. A root's ID must exist before the head decision hashes it,
// so at fleet scale nearly every minted ID belongs to a trace that is then
// sampled out — a lock-free mint keeps those off the recorded-span RNG's
// critical section and out of its draw sequence. Same-seed replays issue the
// same sequence values in the same order, so the IDs — and the decisions
// derived from them — reproduce bit for bit.
func (t *Tracer) mintTraceID() string {
	var id [32]byte
	t.putTraceID(id[:])
	return string(id[:])
}

// putTraceID writes the next root trace ID's 32 digits to dst.
func (t *Tracer) putTraceID(dst []byte) {
	n := t.lazySeq.Add(1)
	putHex16(dst[:16], mix64(t.lazySalt^n))
	putHex16(dst[16:32], mix64(n+0x9e3779b97f4a7c15))
}

// insert places sp in the span ring, evicting the oldest span when full.
func (t *Tracer) insert(sp *Span) {
	t.mu.Lock()
	if t.spans == nil {
		t.spans = make([]*Span, 0, t.spanCap)
	}
	if len(t.spans) < t.spanCap {
		t.spans = append(t.spans, sp)
	} else {
		t.spans[t.spanNext] = sp
		t.spanFull = true
		t.dropped++
	}
	t.spanNext = (t.spanNext + 1) % t.spanCap
	t.mu.Unlock()
}

// SpansDropped reports how many spans were evicted from the ring.
func (t *Tracer) SpansDropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// RingOccupancy reports how many spans the ring currently holds and its
// capacity — the gauge pair that shows whether sampling is keeping trace
// memory bounded.
//
//lint:allow shipped (test seam: sampling tests check the span ring stays bounded)
func (t *Tracer) RingOccupancy() (used, capacity int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans), t.spanCap
}

// Filter selects spans. Zero fields match everything; Tags entries must all
// match the span's tags.
type Filter struct {
	TraceID string
	Name    string
	Tags    map[string]string
}

func (f Filter) matches(s SpanSnapshot) bool {
	if f.TraceID != "" && s.TraceID != f.TraceID {
		return false
	}
	if f.Name != "" && s.Name != f.Name {
		return false
	}
	for k, v := range f.Tags {
		if s.Tags[k] != v {
			return false
		}
	}
	return true
}

// Spans returns a consistent snapshot of recorded spans matching f, oldest
// first.
func (t *Tracer) Spans(f Filter) []SpanSnapshot {
	if t == nil {
		return nil
	}
	live := t.liveSpans()
	var out []SpanSnapshot
	for _, sp := range live {
		snap := sp.snapshot()
		if f.matches(snap) {
			out = append(out, snap)
		}
	}
	return out
}

// liveSpans copies the ring contents (oldest first) under the tracer lock.
func (t *Tracer) liveSpans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.spanFull {
		return append([]*Span(nil), t.spans...)
	}
	out := make([]*Span, 0, len(t.spans))
	out = append(out, t.spans[t.spanNext:]...)
	out = append(out, t.spans[:t.spanNext]...)
	return out
}

// QuerySpans resolves q — a trace ID, an extension name, or a node name —
// into the full set of spans of every trace it touches. An empty q returns
// every span.
func (t *Tracer) QuerySpans(q string) []SpanSnapshot {
	if t == nil {
		return nil
	}
	all := t.Spans(Filter{})
	if q == "" {
		return all
	}
	ids := make(map[string]bool)
	for _, s := range all {
		if s.TraceID == q || s.Tags["ext"] == q || s.Tags["node"] == q {
			ids[s.TraceID] = true
		}
	}
	var out []SpanSnapshot
	for _, s := range all {
		if ids[s.TraceID] {
			out = append(out, s)
		}
	}
	return out
}
