package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/lvm"
	"repro/internal/sandbox"
)

// This file is the information-flow half of the admission analyzer: an
// interprocedural taint analysis over LVM bytecode. Host-call *sources*
// (store.get, session.*, device.*) produce tainted values; the analysis
// tracks them through the operand stack, local slots, object fields and call
// boundaries; reaching a *sink* host call (net.post, net.replicate,
// store.put) records a Flow. Capability inference answers "which host calls
// can run"; this answers "where can their data go" — the difference between
// an extension that reads the store and posts telemetry, and one that reads
// the store and posts the store.
//
// The analysis is deliberately over-approximate where precision is expensive:
// fields are tracked flow-insensitively by name across the whole program
// (an assignment anywhere taints reads everywhere), calls are
// context-insensitive (parameter taints join over all call sites), and
// exception handlers assume the worst write-state of locals. Only explicit
// data flows are tracked; implicit flows through branching on a tainted
// condition are out of scope, as in classic taint systems. Everything is
// monotone over a finite set of source sites, so the fixpoint terminates.

// FlowStep is one pc of a flow witness: where tainted data was produced,
// crossed a method/field boundary, or reached a sink.
type FlowStep struct {
	Method string // "Class.method"
	PC     int
}

func (s FlowStep) String() string { return fmt.Sprintf("%s@%d", s.Method, s.PC) }

// Flow records one information flow from a source host call to a sink host
// call. Witness is a pc chain: the source site first, then the boundary
// crossings the tainted value took (stores to fields, call-argument passing),
// and the sink site last. Every witness pc is reachable in its method.
type Flow struct {
	Source   sandbox.Capability
	Sink     sandbox.Capability
	SourceFn string
	SinkFn   string
	Witness  []FlowStep
}

// Rule renders the flow as the policy identity admission matches against an
// extension's declared flows: "<source-cap>-><sink-cap>".
func (f Flow) Rule() string { return string(f.Source) + "->" + string(f.Sink) }

// String renders the flow with its witness chain for diagnostics.
func (f Flow) String() string {
	steps := make([]string, len(f.Witness))
	for i, s := range f.Witness {
		steps[i] = s.String()
	}
	return fmt.Sprintf("%s: %s -> %s via %s", f.Rule(), f.SourceFn, f.SinkFn, strings.Join(steps, " "))
}

// FlowRules returns the deduplicated, sorted policy rules of flows (nil when
// there are none).
func FlowRules(flows []Flow) []string {
	if len(flows) == 0 {
		return nil
	}
	set := make(map[string]bool, len(flows))
	for _, f := range flows {
		set[f.Rule()] = true
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// IsSourceFn reports whether the host function produces sensitive data: the
// persistent store, session/caller identity, and device (sensor) readings.
func IsSourceFn(fn string) bool {
	return fn == "store.get" ||
		strings.HasPrefix(fn, string(sandbox.CapSession)+".") ||
		strings.HasPrefix(fn, string(sandbox.CapDevice)+".")
}

// IsSinkFn reports whether the host function moves data somewhere that
// outlives or leaves the invocation: off-node (net.*) or into the store.
func IsSinkFn(fn string) bool {
	switch fn {
	case "net.post", "net.replicate", "store.put":
		return true
	}
	return false
}

// taintSet is a sorted set of origin ids; nil means untainted. Sets are
// immutable — union returns a fresh slice when it grows.
type taintSet []int

func unionTaint(a, b taintSet) (taintSet, bool) {
	if len(b) == 0 {
		return a, false
	}
	if len(a) == 0 {
		return b, true
	}
	// Fast path: b ⊆ a.
	grew := false
	for _, id := range b {
		if !containsInt(a, id) {
			grew = true
			break
		}
	}
	if !grew {
		return a, false
	}
	out := make(taintSet, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, true
}

// taintOrigin is one source site: the host function and the pc that called it.
// trail accumulates the boundary crossings its taint took, diagnostic only
// (it never drives the fixpoint).
type taintOrigin struct {
	fn      string
	site    FlowStep
	trail   []FlowStep // starts with site; boundary steps appended once each
	inTrail map[FlowStep]bool
}

// sinkHit is one (origin, sink site) pair found by the analysis.
type sinkHit struct {
	originID int
	sinkFn   string
	site     FlowStep
}

// taintWorld is the interprocedural state shared across per-method passes:
// origins, the flow-insensitive field map, the per-method parameter, return
// and throw summaries (methodInfo.taint), and the sink hits. dirty flags any
// summary growth, driving the outer fixpoint. Its maps are made on first
// write, so code without fields, sources or sinks allocates none of them.
type taintWorld struct {
	a        *analyzer
	origins  []*taintOrigin
	originAt map[FlowStep]int
	fields   map[string]taintSet
	hits     map[sinkHit]bool
	sorted   []sinkHit // hits in report order, once the fixpoint is reached
	dirty    bool
	// arena backs the in-states of the running per-method pass; each pass
	// recycles it, since the analysis keeps only the world between passes.
	arena []taintSet
	out   taintState // taintFlow.Apply's result, rebuilt on every call
}

// taintSummary is one method's interprocedural taint summary.
type taintSummary struct {
	entry  []taintSet // slot 0 = receiver, 1.. = params
	ret    taintSet
	esc    taintSet   // thrown taint, callees included
	stored []taintSet // per local slot, everything ever stored there
}

// put sets (*m)[k] = v, making the map on first use.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

func (w *taintWorld) originFor(fn string, site FlowStep) int {
	if id, ok := w.originAt[site]; ok {
		return id
	}
	id := len(w.origins)
	w.origins = append(w.origins, &taintOrigin{
		fn:      fn,
		site:    site,
		trail:   []FlowStep{site},
		inTrail: map[FlowStep]bool{site: true},
	})
	put(&w.originAt, site, id)
	return id
}

// noteTrail appends a boundary step to every origin in t, once per origin.
func (w *taintWorld) noteTrail(t taintSet, step FlowStep) {
	for _, id := range t {
		o := w.origins[id]
		if !o.inTrail[step] {
			o.inTrail[step] = true
			o.trail = append(o.trail, step)
		}
	}
}

func (w *taintWorld) joinField(key string, t taintSet) {
	merged, grew := unionTaint(w.fields[key], t)
	if grew {
		put(&w.fields, key, merged)
		w.dirty = true
	}
}

func (w *taintWorld) joinEntry(callee *methodInfo, vals []taintSet) {
	ent := callee.taint.entry
	n := 1 + callee.m.Arity()
	if len(ent) < n {
		ent = append(ent, make([]taintSet, n-len(ent))...)
	}
	for i := 0; i < n && i < len(vals); i++ {
		merged, grew := unionTaint(ent[i], vals[i])
		if grew {
			ent[i] = merged
			w.dirty = true
		}
	}
	callee.taint.entry = ent
}

func (w *taintWorld) joinRet(mi *methodInfo, t taintSet) {
	merged, grew := unionTaint(mi.taint.ret, t)
	if grew {
		mi.taint.ret = merged
		w.dirty = true
	}
}

func (w *taintWorld) joinEsc(mi *methodInfo, t taintSet) {
	merged, grew := unionTaint(mi.taint.esc, t)
	if grew {
		mi.taint.esc = merged
		w.dirty = true
	}
}

func (w *taintWorld) noteStored(mi *methodInfo, slot int, t taintSet) {
	st := mi.taint.stored
	if len(st) <= slot {
		st = append(st, make([]taintSet, slot+1-len(st))...)
	}
	merged, grew := unionTaint(st[slot], t)
	if grew {
		st[slot] = merged
		w.dirty = true
	}
	mi.taint.stored = st
}

func (w *taintWorld) noteHit(originID int, sinkFn string, site FlowStep) {
	put(&w.hits, sinkHit{originID: originID, sinkFn: sinkFn, site: site}, true)
}

func (w *taintWorld) sortedHits() []sinkHit {
	out := make([]sinkHit, 0, len(w.hits))
	for h := range w.hits {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.originID != b.originID {
			return a.originID < b.originID
		}
		if a.sinkFn != b.sinkFn {
			return a.sinkFn < b.sinkFn
		}
		if a.site.Method != b.site.Method {
			return a.site.Method < b.site.Method
		}
		return a.site.PC < b.site.PC
	})
	return out
}

// fieldKey names a field cell for the flow-insensitive field map. The
// assembler stamps Sym with the field name; hand-built code may carry only
// the slot index.
func fieldKey(ins lvm.Instr) string {
	if ins.Sym != "" {
		return ins.Sym
	}
	return fmt.Sprintf("#%d", ins.A)
}

// taintState is the per-pc abstract state: the taint of every operand stack
// slot and local. Shapes mirror the typed verifier exactly (same pops, same
// pushes), so a method that typechecked can never underflow here.
type taintState struct {
	stack  []taintSet
	locals []taintSet
}

// taintFlow is the per-method Transfer of the taint analysis. Apply both
// transforms the local state and joins into the shared world (fields, callee
// entries, returns, throws, sink hits) — those joins are monotone, so
// re-applying during the fixpoint is harmless.
type taintFlow struct {
	w  *taintWorld
	mi *methodInfo
}

// Copy implements Transfer: locals and stack share one array cut from the
// arena, each capped so that nothing appended to one can reach the other.
func (t *taintFlow) Copy(s taintState) taintState {
	nl := len(s.locals)
	buf := carve(&t.w.arena, nl+len(s.stack))
	copy(buf, s.locals)
	copy(buf[nl:], s.stack)
	return taintState{locals: buf[:nl:nl], stack: buf[nl:]}
}

func (t *taintFlow) Entry() taintState {
	locals := carve(&t.w.arena, t.mi.m.FrameSize())
	copy(locals, t.mi.taint.entry)
	return taintState{locals: locals}
}

func (t *taintFlow) HandlerEntry() taintState {
	// The engine clears the stack and pushes the exception message; a
	// tainted thrown value taints the message. Locals may be in any
	// write-state, so join the parameter taints with everything ever stored.
	nl := t.mi.m.FrameSize()
	buf := carve(&t.w.arena, nl+1)
	locals := buf[:nl:nl]
	copy(locals, t.mi.taint.entry)
	for i, st := range t.mi.taint.stored {
		if i < len(locals) {
			locals[i], _ = unionTaint(locals[i], st)
		}
	}
	buf[nl] = t.mi.taint.esc
	return taintState{stack: buf[nl:], locals: locals}
}

func (t *taintFlow) Merge(a *taintState, b taintState) (bool, error) {
	if len(a.stack) != len(b.stack) {
		return false, fmt.Errorf("taint: inconsistent stack depth (%d vs %d)", len(a.stack), len(b.stack))
	}
	changed := false
	for i := range a.stack {
		if m, grew := unionTaint(a.stack[i], b.stack[i]); grew {
			a.stack[i] = m
			changed = true
		}
	}
	for i := range a.locals {
		if m, grew := unionTaint(a.locals[i], b.locals[i]); grew {
			a.locals[i] = m
			changed = true
		}
	}
	return changed, nil
}

func (t *taintFlow) Apply(pc int, ins lvm.Instr, in taintState) (taintState, error) {
	s := &t.w.out
	// One instruction pushes at most one value more than it pops.
	s.stack = append(slices.Grow(s.stack[:0], len(in.stack)+1), in.stack...)
	s.locals = append(s.locals[:0], in.locals...)
	pop := func(want int) ([]taintSet, error) {
		if len(s.stack) < want {
			return nil, fmt.Errorf("taint: stack underflow (%s needs %d, have %d)", ins.Op, want, len(s.stack))
		}
		vals := s.stack[len(s.stack)-want:]
		s.stack = s.stack[:len(s.stack)-want]
		return vals, nil
	}
	push := func(t taintSet) { s.stack = append(s.stack, t) }
	union := func(vals []taintSet) taintSet {
		var out taintSet
		for _, v := range vals {
			out, _ = unionTaint(out, v)
		}
		return out
	}

	switch ins.Op {
	case lvm.OpNop, lvm.OpJump, lvm.OpReturnVoid:
	case lvm.OpConst, lvm.OpNew:
		push(nil)
	case lvm.OpLoad:
		if ins.A < 0 || ins.A >= len(s.locals) {
			return *s, fmt.Errorf("taint: load slot %d out of range", ins.A)
		}
		push(s.locals[ins.A])
	case lvm.OpStore:
		v, err := pop(1)
		if err != nil {
			return *s, err
		}
		if ins.A < 0 || ins.A >= len(s.locals) {
			return *s, fmt.Errorf("taint: store slot %d out of range", ins.A)
		}
		s.locals[ins.A] = v[0]
		t.w.noteStored(t.mi, ins.A, v[0])
	case lvm.OpGetField:
		v, err := pop(1)
		if err != nil {
			return *s, err
		}
		ft := t.w.fields[fieldKey(ins)]
		t.w.noteTrail(ft, FlowStep{Method: t.mi.name, PC: pc})
		out, _ := unionTaint(ft, v[0])
		push(out)
	case lvm.OpSetField:
		v, err := pop(2)
		if err != nil {
			return *s, err
		}
		t.w.noteTrail(v[1], FlowStep{Method: t.mi.name, PC: pc})
		t.w.joinField(fieldKey(ins), v[1])
	case lvm.OpGetSelf:
		ft := t.w.fields[fieldKey(ins)]
		t.w.noteTrail(ft, FlowStep{Method: t.mi.name, PC: pc})
		push(ft)
	case lvm.OpSetSelf:
		v, err := pop(1)
		if err != nil {
			return *s, err
		}
		t.w.noteTrail(v[0], FlowStep{Method: t.mi.name, PC: pc})
		t.w.joinField(fieldKey(ins), v[0])
	case lvm.OpAdd, lvm.OpSub, lvm.OpMul, lvm.OpDiv, lvm.OpMod,
		lvm.OpEq, lvm.OpNe, lvm.OpLt, lvm.OpLe, lvm.OpGt, lvm.OpGe,
		lvm.OpAnd, lvm.OpOr, lvm.OpConcat:
		v, err := pop(2)
		if err != nil {
			return *s, err
		}
		push(union(v))
	case lvm.OpNeg, lvm.OpNot, lvm.OpLen:
		v, err := pop(1)
		if err != nil {
			return *s, err
		}
		push(v[0])
	case lvm.OpJumpFalse:
		// The condition is consumed; branching on tainted data is an implicit
		// flow, which this analysis deliberately does not track.
		if _, err := pop(1); err != nil {
			return *s, err
		}
	case lvm.OpCall:
		if ins.B < 0 {
			return *s, fmt.Errorf("taint: negative argc")
		}
		v, err := pop(ins.B + 1)
		if err != nil {
			return *s, err
		}
		step := FlowStep{Method: t.mi.name, PC: pc}
		var result taintSet
		for _, callee := range t.mi.targets[pc] {
			ci := t.w.a.info[callee]
			t.w.joinEntry(ci, v)
			result, _ = unionTaint(result, ci.taint.ret)
			// Exceptions escaping the callee surface at this call site.
			t.w.joinEsc(t.mi, ci.taint.esc)
		}
		t.w.noteTrail(union(v), step)
		t.w.noteTrail(result, step)
		push(result)
	case lvm.OpHostCall:
		if ins.B < 0 {
			return *s, fmt.Errorf("taint: negative argc")
		}
		v, err := pop(ins.B)
		if err != nil {
			return *s, err
		}
		site := FlowStep{Method: t.mi.name, PC: pc}
		args := union(v)
		if IsSinkFn(ins.Sym) {
			for _, id := range args {
				t.w.noteHit(id, ins.Sym, site)
			}
		}
		// A host result derives from the call's arguments (conservative); a
		// source additionally mints fresh taint.
		result := args
		if IsSourceFn(ins.Sym) {
			id := t.w.originFor(ins.Sym, site)
			result, _ = unionTaint(result, taintSet{id})
		}
		push(result)
	case lvm.OpThrow:
		v, err := pop(1)
		if err != nil {
			return *s, err
		}
		t.w.joinEsc(t.mi, v[0])
	case lvm.OpReturn:
		v, err := pop(1)
		if err != nil {
			return *s, err
		}
		t.w.joinRet(t.mi, v[0])
	case lvm.OpPop:
		if _, err := pop(1); err != nil {
			return *s, err
		}
	case lvm.OpDup:
		v, err := pop(1)
		if err != nil {
			return *s, err
		}
		push(v[0])
		push(v[0])
	default:
		return *s, fmt.Errorf("taint: unknown opcode %d", ins.Op)
	}
	return *s, nil
}

// taintAnalysis runs the interprocedural taint fixpoint over the whole
// program once and memoizes the world. The outer loop re-runs every
// per-method pass until no interprocedural summary (fields, entries, returns,
// throws, handler write-states) grows; everything is monotone over the finite
// origin set, so it converges.
func (a *analyzer) taintAnalysis() (*taintWorld, error) {
	if a.taintW != nil {
		return a.taintW, nil
	}
	w := &taintWorld{a: a}
	flows := make([]taintFlow, len(a.methods))
	for i := range a.methods {
		flows[i] = taintFlow{w: w, mi: &a.methods[i]}
	}
	for {
		w.dirty = false
		for i := range flows {
			tf := &flows[i]
			clear(w.arena)
			w.arena = w.arena[:0]
			in, seen, err := Forward[taintState](tf.mi.types.CFG, tf)
			if err != nil {
				return nil, fmt.Errorf("taint: %s: %w", tf.mi.name, err)
			}
			// Apply also joins into the world, which may have grown since a
			// pc's last Apply in the worklist. One more Apply per visited pc,
			// in pc order over the fixpoint states, makes those joins, and so
			// the order of every witness trail, independent of the order the
			// worklist happened to visit pcs in. It cannot fail: Forward
			// already applied every pc to these very states.
			code := tf.mi.m.Code
			for pc, visited := range seen {
				if visited {
					_, _ = tf.Apply(pc, code[pc], in[pc])
				}
			}
		}
		if !w.dirty {
			break
		}
	}
	w.sorted = w.sortedHits()
	a.taintW = w
	return w, nil
}

func (a *analyzer) stepReachable(s FlowStep) bool {
	mi := a.byName[s.Method]
	if mi == nil || s.PC < 0 || s.PC >= len(mi.m.Code) {
		return false
	}
	return mi.reachablePCs()[s.PC]
}

// Flows returns the source→sink flows reachable from entry, sorted
// deterministically. A flow is attributed to entry when both its source and
// sink sites lie in methods reachable through entry's call graph; witness
// steps in unreachable code are pruned (code that cannot run cannot flow),
// and a flow whose source or sink site itself is unreachable is dropped.
func (a *analyzer) Flows(entry *methodInfo) ([]Flow, error) {
	w, err := a.taintAnalysis()
	if err != nil {
		return nil, err
	}
	if len(w.sorted) == 0 {
		return nil, nil
	}
	callees := a.reachableMethods(entry)
	reach := make(map[string]bool, len(callees))
	for _, m := range callees {
		reach[a.info[m].name] = true
	}
	var out []Flow
	for _, h := range w.sorted {
		o := w.origins[h.originID]
		if !reach[o.site.Method] || !reach[h.site.Method] {
			continue
		}
		if !a.stepReachable(o.site) || !a.stepReachable(h.site) {
			continue
		}
		wit := make([]FlowStep, 0, len(o.trail)+1)
		for _, st := range o.trail {
			if reach[st.Method] && a.stepReachable(st) {
				wit = append(wit, st)
			}
		}
		wit = append(wit, h.site)
		out = append(out, Flow{
			Source:   sandbox.CapabilityOf(o.fn),
			Sink:     sandbox.CapabilityOf(h.sinkFn),
			SourceFn: o.fn,
			SinkFn:   h.sinkFn,
			Witness:  wit,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if r1, r2 := x.Rule(), y.Rule(); r1 != r2 {
			return r1 < r2
		}
		if x.SourceFn != y.SourceFn {
			return x.SourceFn < y.SourceFn
		}
		if x.SinkFn != y.SinkFn {
			return x.SinkFn < y.SinkFn
		}
		return flowStepsLess(x.Witness, y.Witness)
	})
	return out, nil
}

func flowStepsLess(a, b []FlowStep) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Method != b[i].Method {
			return a[i].Method < b[i].Method
		}
		if a[i].PC != b[i].PC {
			return a[i].PC < b[i].PC
		}
	}
	return len(a) < len(b)
}
