package trace

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety mirrors the metrics package's nil-safety contract: a nil
// *Tracer and a nil *Span must be usable no-ops so libraries never nil-check.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartSpan(context.Background(), "noop")
	if ctx == nil {
		t.Fatal("nil tracer returned nil ctx")
	}
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	sp.Tag("k", "v")
	sp.Annotatef("note %d", 1)
	sp.End(errors.New("boom"))
	if sc := sp.Context(); sc.Valid() {
		t.Fatalf("nil span context should be invalid, got %+v", sc)
	}
	tr.Eventf(ctx, "comp", "event %d", 1)
	tr.SetNow(time.Now)
	if got := tr.Spans(Filter{}); got != nil {
		t.Fatalf("nil tracer Spans = %v, want nil", got)
	}
	if got := tr.Events(EventFilter{}); got != nil {
		t.Fatalf("nil tracer Events = %v, want nil", got)
	}
	if got := tr.QuerySpans("x"); got != nil {
		t.Fatalf("nil tracer QuerySpans = %v, want nil", got)
	}
	if tr.SpansDropped() != 0 {
		t.Fatal("nil tracer SpansDropped != 0")
	}
}

func TestSpanParentChildAndContext(t *testing.T) {
	tr := New(1)
	ctx, root := tr.StartSpan(context.Background(), "root")
	root.Tag("node", "n1")
	cctx, child := tr.StartSpan(ctx, "child")
	child.End(nil)
	root.End(nil)

	rsc := root.Context()
	csc := child.Context()
	if !rsc.Valid() || !csc.Valid() {
		t.Fatal("span contexts should be valid")
	}
	if rsc.TraceID != csc.TraceID {
		t.Fatalf("child trace %s != root trace %s", csc.TraceID, rsc.TraceID)
	}
	if got, ok := FromContext(cctx); !ok || got != csc {
		t.Fatalf("FromContext = %+v, want %+v", got, csc)
	}
	spans := tr.Spans(Filter{})
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[1].ParentID != rsc.SpanID {
		t.Fatalf("child parent %s, want %s", spans[1].ParentID, rsc.SpanID)
	}
	if spans[0].Tags["node"] != "n1" {
		t.Fatalf("root tags = %v", spans[0].Tags)
	}
	if spans[1].EndUnixNano == 0 {
		t.Fatal("child should be ended")
	}
}

func TestDeterministicIDs(t *testing.T) {
	mint := func() []SpanSnapshot {
		tr := New(42)
		tr.SetNow(func() time.Time { return time.Unix(0, 12345) })
		ctx, a := tr.StartSpan(context.Background(), "a")
		_, b := tr.StartSpan(ctx, "b")
		b.End(nil)
		a.End(nil)
		return tr.Spans(Filter{})
	}
	if got, want := mint(), mint(); !reflect.DeepEqual(got, want) {
		t.Fatalf("same seed minted different spans:\n%v\n%v", got, want)
	}
	other := New(43)
	_, sp := other.StartSpan(context.Background(), "a")
	if sp.Context().TraceID == mint()[0].TraceID {
		t.Fatal("different seeds minted identical trace IDs")
	}
}

func TestSpanRingBounds(t *testing.T) {
	tr := New(7)
	tr.spanCap, tr.eventCap = 4, 4
	var last SpanContext
	for i := 0; i < 10; i++ {
		_, sp := tr.StartSpan(context.Background(), "s")
		sp.End(nil)
		last = sp.Context()
	}
	spans := tr.Spans(Filter{})
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	if spans[3].SpanID != last.SpanID {
		t.Fatal("newest span missing from ring")
	}
	if tr.SpansDropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.SpansDropped())
	}
}

func TestEventRingOrderAndFilter(t *testing.T) {
	tr := New(7)
	tr.spanCap, tr.eventCap = 16, 3
	ctx, sp := tr.StartSpan(context.Background(), "s")
	for i := 0; i < 5; i++ {
		if i%2 == 0 {
			tr.Eventf(ctx, "lease", "ev %d", i)
		} else {
			tr.Eventf(nil, "disc", "ev %d", i)
		}
	}
	sp.End(nil)
	events := tr.Events(EventFilter{})
	if len(events) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("events out of order: %v", events)
		}
	}
	if events[2].Msg != "ev 4" || events[2].TraceID != sp.Context().TraceID {
		t.Fatalf("newest event wrong: %+v", events[2])
	}
	byComp := tr.Events(EventFilter{Component: "lease"})
	for _, e := range byComp {
		if e.Component != "lease" {
			t.Fatalf("component filter leaked %+v", e)
		}
	}
	byTrace := tr.Events(EventFilter{TraceID: sp.Context().TraceID})
	if len(byTrace) == 0 {
		t.Fatal("trace filter found nothing")
	}
}

func TestQuerySpansExpandsTraces(t *testing.T) {
	tr := New(9)
	ctx, root := tr.StartSpan(context.Background(), "base.push")
	root.Tag("ext", "plotter-guard")
	_, child := tr.StartSpan(ctx, "rpc.call")
	child.End(nil)
	root.End(nil)
	_, other := tr.StartSpan(context.Background(), "unrelated")
	other.End(nil)

	got := tr.QuerySpans("plotter-guard")
	if len(got) != 2 {
		t.Fatalf("query by ext got %d spans, want the full 2-span trace", len(got))
	}
	byID := tr.QuerySpans(root.Context().TraceID)
	if len(byID) != 2 {
		t.Fatalf("query by trace ID got %d spans, want 2", len(byID))
	}
	if all := tr.QuerySpans(""); len(all) != 3 {
		t.Fatalf("empty query got %d spans, want all 3", len(all))
	}
}

func TestConcurrentSpansAndSnapshots(t *testing.T) {
	tr := New(3)
	tr.spanCap, tr.eventCap = 64, 64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				ctx, sp := tr.StartSpan(context.Background(), "w")
				sp.Tag("k", "v")
				tr.Eventf(ctx, "c", "e")
				sp.End(nil)
				tr.Spans(Filter{Name: "w"})
				tr.Events(EventFilter{})
			}
		}()
	}
	wg.Wait()
}

func TestHTTPHandlers(t *testing.T) {
	tr := New(5)
	ctx, sp := tr.StartSpan(context.Background(), "ext.install")
	sp.Tag("ext", "e1")
	tr.Eventf(ctx, "lease", "grant")
	sp.End(nil)

	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/trace?q=e1", nil))
	if !strings.Contains(rec.Body.String(), "ext.install") {
		t.Fatalf("/trace missing span: %s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	EventsHandler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/events?component=lease", nil))
	if !strings.Contains(rec.Body.String(), "grant") {
		t.Fatalf("/events missing event: %s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Fatalf("nil tracer /trace = %q, want []", rec.Body.String())
	}
}

func TestWriteTextTree(t *testing.T) {
	tr := New(11)
	ctx, root := tr.StartSpan(context.Background(), "base.adapt")
	root.Tag("node", "n1")
	_, child := tr.StartSpan(ctx, "base.push")
	child.Annotatef("retrying")
	child.End(errors.New("lost"))
	root.End(nil)

	var b strings.Builder
	WriteText(&b, tr.Spans(Filter{}))
	out := b.String()
	for _, want := range []string{"trace ", "- base.adapt", "  - base.push", "@ retrying", `err="lost"`, "node=n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, out)
		}
	}
	var eb strings.Builder
	tr.Eventf(nil, "weave", "inserted")
	WriteEventsText(&eb, tr.Events(EventFilter{}))
	if !strings.Contains(eb.String(), "[weave] inserted") {
		t.Fatalf("WriteEventsText output: %s", eb.String())
	}
}

func TestDetach(t *testing.T) {
	tr := New(13)
	ctx, sp := tr.StartSpan(context.Background(), "s")
	type key struct{}
	ctx = context.WithValue(ctx, key{}, "payload")
	d := Detach(ctx)
	if sc, ok := FromContext(d); !ok || sc != sp.Context() {
		t.Fatal("Detach lost span context")
	}
	if d.Value(key{}) != nil {
		t.Fatal("Detach kept unrelated values")
	}
	if d := Detach(context.Background()); d == nil {
		t.Fatal("Detach of plain ctx returned nil")
	}
	sp.End(nil)
}

// TestSamplerDeterministicDecisions pins the head sampler's contract: the
// decision is a pure function of (seed, trace ID), so two tracers sharing a
// seed resolve every trace identically, and a replay reproduces the original
// run's recorded spans bit for bit.
func TestSamplerDeterministicDecisions(t *testing.T) {
	run := func() ([]SpanSnapshot, uint64) {
		tr := New(42)
		tr.SetNow(func() time.Time { return time.Unix(0, 777) })
		tr.SetSampler(SamplerConfig{Rate: 0.5, Seed: 42})
		for i := 0; i < 200; i++ {
			ctx, root := tr.StartSpan(context.Background(), "root")
			_, child := tr.StartSpan(ctx, "child")
			child.End(nil)
			root.End(nil)
		}
		out, _ := tr.SamplerStats()
		return tr.Spans(Filter{}), out
	}
	spans1, out1 := run()
	spans2, out2 := run()
	if !reflect.DeepEqual(spans1, spans2) {
		t.Fatalf("same-seed replay recorded different spans: %d vs %d", len(spans1), len(spans2))
	}
	if out1 != out2 {
		t.Fatalf("same-seed replay sampled out %d vs %d", out1, out2)
	}
	if out1 == 0 || len(spans1) == 0 {
		t.Fatalf("rate 0.5 should both keep and drop: kept %d, dropped %d", len(spans1), out1)
	}
	// Children always share the root's decision: every recorded span's trace
	// must appear an even number of times (root + child or neither).
	perTrace := map[string]int{}
	for _, s := range spans1 {
		perTrace[s.TraceID]++
	}
	for id, n := range perTrace {
		if n != 2 {
			t.Fatalf("trace %s recorded %d spans, want 2 (decision must bind the whole trace)", id, n)
		}
	}
}

// TestTailKeepRescuesErrorsAndSlow drives Rate 0 — head-drop everything — and
// checks the two tail-keep escape hatches: spans that end in error, and spans
// at or over SlowThreshold, still enter the ring.
func TestTailKeepRescuesErrorsAndSlow(t *testing.T) {
	tr := New(7)
	now := time.Unix(0, 0)
	tr.SetNow(func() time.Time { return now })
	tr.SetSampler(SamplerConfig{Rate: 0, Seed: 7, SlowThreshold: 10 * time.Millisecond})

	_, errSpan := tr.StartSpan(context.Background(), "boom")
	errSpan.End(errors.New("lost"))

	_, slowSpan := tr.StartSpan(context.Background(), "slow")
	now = now.Add(10 * time.Millisecond)
	slowSpan.End(nil)

	_, fastSpan := tr.StartSpan(context.Background(), "fast")
	now = now.Add(time.Millisecond)
	fastSpan.End(nil)

	spans := tr.Spans(Filter{})
	if len(spans) != 2 {
		t.Fatalf("ring holds %d spans, want error+slow only: %+v", len(spans), spans)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.SpanID == "" {
			t.Fatalf("tail-kept span %q has no ID", s.Name)
		}
	}
	if !names["boom"] || !names["slow"] {
		t.Fatalf("tail-keep kept %v, want boom and slow", names)
	}
	sampledOut, tailKept := tr.SamplerStats()
	if sampledOut != 3 || tailKept != 2 {
		t.Fatalf("stats = (out %d, kept %d), want (3, 2)", sampledOut, tailKept)
	}
}

// TestSampledOutChildReusesContext pins the fast path: once a trace is
// sampled out, starting a child with the decision already in the context
// must not allocate a fresh context, and the decision must ride the flags.
func TestSampledOutChildReusesContext(t *testing.T) {
	tr := New(3)
	tr.SetSampler(SamplerConfig{Rate: 0, Seed: 3})
	ctx, root := tr.StartSpan(context.Background(), "root")
	sc, ok := FromContext(ctx)
	if !ok {
		t.Fatal("root context missing span context")
	}
	if sampled, known := sc.SampleDecision(); sampled || !known {
		t.Fatalf("root flags = %#x, want known+not-sampled", sc.Flags)
	}
	cctx, child := tr.StartSpan(ctx, "child")
	if cctx != ctx {
		t.Fatal("sampled-out child should return the caller's context unchanged")
	}
	child.End(nil)
	root.End(nil)
	if spans := tr.Spans(Filter{}); len(spans) != 0 {
		t.Fatalf("sampled-out trace recorded %d spans", len(spans))
	}
}

// TestSamplerDecisionFromLegacyPeer: a span context without sampling flags —
// what a pre-sampling peer propagates — forces a local re-decision from the
// trace ID, which every same-seed tracer resolves the same way.
func TestSamplerDecisionFromLegacyPeer(t *testing.T) {
	tr := New(11)
	tr.SetSampler(SamplerConfig{Rate: 0.5, Seed: 99})
	legacy := SpanContext{TraceID: "00000000000000000000000000000abc", SpanID: "0000000000000abc"}
	ctx := NewContext(context.Background(), legacy)
	_, sp := tr.StartSpan(ctx, "hop")
	sampled, known := sp.Context().SampleDecision()
	if !known {
		t.Fatal("hop should resolve a decision for a legacy parent")
	}
	tr2 := New(1234) // different ID seed, same sampler seed
	tr2.SetSampler(SamplerConfig{Rate: 0.5, Seed: 99})
	_, sp2 := tr2.StartSpan(NewContext(context.Background(), legacy), "hop")
	sampled2, _ := sp2.Context().SampleDecision()
	if sampled != sampled2 {
		t.Fatal("same sampler seed resolved one trace two ways across tracers")
	}
	sp.End(nil)
	sp2.End(nil)
}

// TestRingEvictionUnderConcurrentStartAndSnapshot hammers a tiny ring from
// parallel writers while readers snapshot, then checks the ring never grew
// past capacity and the drop counter accounts for every eviction. Run with
// -race, this is also the memory-model check on the sampler fast path.
func TestRingEvictionUnderConcurrentStartAndSnapshot(t *testing.T) {
	tr := New(5)
	tr.spanCap, tr.eventCap = 8, 8
	tr.SetSampler(SamplerConfig{Rate: 0.5, Seed: 5, SlowThreshold: time.Minute})
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ctx, root := tr.StartSpan(context.Background(), "w")
				_, child := tr.StartSpan(ctx, "c")
				if i%16 == 0 {
					child.End(errors.New("boom")) // exercises tail-keep concurrently
				} else {
					child.End(nil)
				}
				root.End(nil)
				if i%8 == 0 {
					tr.Spans(Filter{})
					tr.RingOccupancy()
				}
			}
		}(w)
	}
	wg.Wait()
	used, capacity := tr.RingOccupancy()
	if capacity != 8 || used > capacity {
		t.Fatalf("ring occupancy %d/%d, want <= 8/8", used, capacity)
	}
	if got := len(tr.Spans(Filter{})); got > 8 {
		t.Fatalf("snapshot returned %d spans from an 8-slot ring", got)
	}
	sampledOut, tailKept := tr.SamplerStats()
	if sampledOut == 0 || tailKept == 0 {
		t.Fatalf("expected both sampling and tail-keep under load, got out=%d kept=%d", sampledOut, tailKept)
	}
}

// TestSamplerKeepsRingBounded is the fleet-scale property in miniature: at a
// 1% rate, pushing far more traces than the ring holds leaves occupancy
// bounded while errors are never lost.
func TestSamplerKeepsRingBounded(t *testing.T) {
	tr := New(17)
	tr.spanCap, tr.eventCap = 64, 8
	tr.SetSampler(SamplerConfig{Rate: 0.01, Seed: 17})
	errs := 0
	for i := 0; i < 5000; i++ {
		_, sp := tr.StartSpan(context.Background(), "op")
		if i%500 == 0 {
			errs++
			sp.End(errors.New("boom"))
		} else {
			sp.End(nil)
		}
	}
	used, capacity := tr.RingOccupancy()
	if used > capacity {
		t.Fatalf("ring occupancy %d over capacity %d", used, capacity)
	}
	kept := tr.Spans(Filter{})
	errKept := 0
	for _, s := range kept {
		if s.Err != "" {
			errKept++
		}
	}
	_, tailKept := tr.SamplerStats()
	if int(tailKept) < errs {
		t.Fatalf("tail-keep rescued %d, want at least the %d errors", tailKept, errs)
	}
}

// TestStartRootSpanMintsWhatStartSpanFromDoes pins the replay contract of the
// one-allocation root: for every root of a same-seed run, StartRootSpan
// yields the trace ID, span ID and decision that StartSpanFrom followed by
// Context yields, sampled-in roots included, and later IDs stay aligned.
func TestStartRootSpanMintsWhatStartSpanFromDoes(t *testing.T) {
	newTracer := func() *Tracer {
		tr := New(11)
		tr.SetNow(func() time.Time { return time.Unix(0, 5) })
		tr.SetSampler(SamplerConfig{Rate: 0.3, Seed: 11})
		return tr
	}
	a, b := newTracer(), newTracer()
	kept := 0
	for i := 0; i < 200; i++ {
		spA := a.StartSpanFrom(SpanContext{}, "root")
		scA := spA.Context()
		spB := b.StartRootSpan("root")
		scB := spB.Context()
		if scA != scB {
			t.Fatalf("root %d: StartRootSpan context %+v, StartSpanFrom+Context %+v", i, scB, scA)
		}
		if sampled, _ := scB.SampleDecision(); sampled {
			kept++
		}
		spA.End(nil)
		spB.End(nil)
	}
	if kept == 0 || kept == 200 {
		t.Fatalf("rate 0.3 kept %d of 200 roots, want both outcomes", kept)
	}
	if !reflect.DeepEqual(a.Spans(Filter{}), b.Spans(Filter{})) {
		t.Fatal("the two tracers recorded different spans")
	}
	if ida, idb := a.lazyID(), b.lazyID(); ida != idb {
		t.Fatalf("next lazy ID %s vs %s: the sequences drifted", ida, idb)
	}
}

// TestStartRootSpanSampledOutAllocs pins a sampled-out root at one
// allocation for both of its IDs, with Context minting nothing more.
func TestStartRootSpanSampledOutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	tr := New(1)
	tr.SetSampler(SamplerConfig{Rate: 0, Seed: 1})
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.StartRootSpan("root")
		sp.Tag("node", "n1")
		if sc := sp.Context(); !sc.Valid() {
			t.Fatal("sampled-out root has no span context")
		}
		sp.End(nil)
	})
	if allocs != 1 {
		t.Fatalf("sampled-out root: %.0f allocs, want 1", allocs)
	}
}

// TestChildOneShot covers the three ways a one-shot child goes: counted only
// under a sampled-out parent, tail-kept with its tags on failure, recorded
// under a sampled-in parent. A parent without a decision takes StartSpanFrom's
// path, so it draws the same IDs.
func TestChildOneShot(t *testing.T) {
	tr := New(5)
	tr.SetSampler(SamplerConfig{Rate: 0, Seed: 5})
	out := tr.StartRootSpan("batch")
	outSC := out.Context()
	out.End(nil)
	base, _ := tr.SamplerStats()

	tags := []Tag{{Key: "ext", Value: "policy"}, {Key: "node", Value: "n1"}}
	for i := 0; i < 3; i++ {
		tr.Child(outSC, "item", nil, tags...)
	}
	if got, kept := tr.SamplerStats(); got != base+3 || kept != 0 {
		t.Fatalf("stats after 3 sampled-out items = (%d, %d), want (%d, 0)", got, kept, base+3)
	}
	if spans := tr.Spans(Filter{}); len(spans) != 0 {
		t.Fatalf("sampled-out items recorded %d spans", len(spans))
	}

	tr.Child(outSC, "item", errors.New("unknown lease"), tags...)
	got, kept := tr.SamplerStats()
	if got != base+4 || kept != 1 {
		t.Fatalf("stats after a failed item = (%d, %d), want (%d, 1)", got, kept, base+4)
	}
	failed := tr.Spans(Filter{Name: "item"})
	if len(failed) != 1 || failed[0].Err != "unknown lease" || failed[0].Tags["ext"] != "policy" ||
		failed[0].Tags["node"] != "n1" || failed[0].ParentID != outSC.SpanID || failed[0].TraceID != outSC.TraceID {
		t.Fatalf("tail-kept item = %+v, want the failure with ext/node tags under the batch", failed)
	}

	in := SpanContext{TraceID: outSC.TraceID, SpanID: outSC.SpanID, Flags: FlagSampleKnown | FlagSampled}
	tr.Child(in, "kept-item", nil, tags...)
	rec := tr.Spans(Filter{Name: "kept-item"})
	if len(rec) != 1 || rec[0].Tags["ext"] != "policy" || rec[0].Tags["node"] != "n1" || rec[0].EndUnixNano == 0 {
		t.Fatalf("item under a sampled-in parent = %+v, want it recorded, ended, with both tags", rec)
	}
	if got2, _ := tr.SamplerStats(); got2 != got {
		t.Fatalf("a sampled-in item counted as sampled out: %d -> %d", got, got2)
	}

	// No decision: same IDs as the long form on a same-seed tracer.
	a, b := New(9), New(9)
	a.SetSampler(SamplerConfig{Rate: 1, Seed: 9})
	b.SetSampler(SamplerConfig{Rate: 1, Seed: 9})
	legacy := SpanContext{TraceID: "t", SpanID: "s"}
	a.Child(legacy, "item", nil, tags...)
	sp := b.StartSpanFrom(legacy, "item")
	sp.Tag("ext", "policy")
	sp.Tag("node", "n1")
	sp.End(nil)
	sa, sb := a.Spans(Filter{}), b.Spans(Filter{})
	if len(sa) != 1 || len(sb) != 1 || sa[0].SpanID != sb[0].SpanID || !reflect.DeepEqual(sa[0].Tags, sb[0].Tags) {
		t.Fatalf("no-decision item: Child %+v, long form %+v", sa, sb)
	}
}

// TestChildSampledOutAllocs pins the sampled-out one-shot at zero
// allocations: no span, no pool, no clock.
func TestChildSampledOutAllocs(t *testing.T) {
	tr := New(2)
	tr.SetSampler(SamplerConfig{Rate: 0, Seed: 2})
	tr.SetNow(func() time.Time { t.Fatal("a sampled-out one-shot read the clock"); return time.Time{} })
	parent := SpanContext{TraceID: "t", SpanID: "s", Flags: FlagSampleKnown}
	ext, node := "policy", "n1"
	allocs := testing.AllocsPerRun(100, func() {
		tr.Child(parent, "lease.renew", nil, Tag{Key: "ext", Value: ext}, Tag{Key: "node", Value: node})
	})
	if allocs != 0 {
		t.Fatalf("sampled-out one-shot: %.0f allocs, want 0", allocs)
	}
}

// TestContextValueAnswersOnlyTheSpanKey: a context type that folds a span
// context in answers FromContext through ContextValue and nothing else.
func TestContextValueAnswersOnlyTheSpanKey(t *testing.T) {
	sc := SpanContext{TraceID: "t", SpanID: "s", Flags: FlagSampleKnown}
	ctx := foldedCtx{Context: context.Background(), sc: sc}
	got, ok := FromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("FromContext = %+v, %v; want %+v", got, ok, sc)
	}
	if v, ok := ContextValue("other", &sc); ok || v != nil {
		t.Fatalf("ContextValue answered a foreign key: %v", v)
	}
}

type foldedCtx struct {
	context.Context
	sc SpanContext
}

func (c foldedCtx) Value(key any) any {
	if v, ok := ContextValue(key, &c.sc); ok {
		return v
	}
	return c.Context.Value(key)
}
