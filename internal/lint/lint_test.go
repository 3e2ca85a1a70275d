package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSource parses source text held in memory, as Load parses a file.
func parseSource(t *testing.T, fset *token.FileSet, path, src string) *File {
	t.Helper()
	astF, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return &File{Path: path, AST: astF, allow: waivers(fset, astF)}
}

// runOn parses the given (path, source) pairs into per-directory packages and
// runs the analyzers over them.
func runOn(t *testing.T, sources map[string]string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	byDir := make(map[string]*Package)
	for path, src := range sources {
		f := parseSource(t, fset, path, src)
		dir := "."
		if i := strings.LastIndex(path, "/"); i >= 0 {
			dir = path[:i]
		}
		pkg := byDir[dir]
		if pkg == nil {
			pkg = &Package{Dir: dir}
			byDir[dir] = pkg
		}
		pkg.Files = append(pkg.Files, f)
	}
	var pkgs []*Package
	for _, pkg := range byDir {
		pkgs = append(pkgs, pkg)
	}
	return Run(fset, pkgs, analyzers)
}

func messages(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Analyzer + ": " + d.Message
	}
	return out
}

func TestClockCheckFlagsWallClock(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/core/a.go": `package core
import "time"
func f() {
	_ = time.Now()
	time.Sleep(time.Second)
	_ = time.NewTicker(time.Second)
	_ = 5 * time.Second // durations are fine
}`,
	}, ClockCheck)
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics %v, want 3", len(diags), messages(diags))
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "internal/clock") {
			t.Errorf("diagnostic %q does not point at the clock seam", d.Message)
		}
	}
}

func TestClockCheckExemptsClockPackageAndAliases(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/clock/clock.go": `package clock
import "time"
func now() time.Time { return time.Now() }`,
		"internal/other/b.go": `package other
import stdtime "time"
func f() { stdtime.Sleep(1) }`,
		"internal/other/c.go": `package other
func time_free() {}`,
	}, ClockCheck)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "time.Sleep") {
		t.Fatalf("got %v, want exactly the aliased Sleep flagged", messages(diags))
	}
}

func TestClockCheckWaiver(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/core/a.go": `package core
import "time"
func f() {
	_ = time.Now() //lint:allow clockcheck (reasons after the name are ignored)
	//lint:allow clockcheck
	time.Sleep(time.Second)
	time.Sleep(time.Second) //lint:allow othercheck
}`,
	}, ClockCheck)
	if len(diags) != 1 {
		t.Fatalf("got %v, want only the mis-waived Sleep", messages(diags))
	}
}

const twinDecls = `package api
import "context"
type Store struct{}
func (s *Store) Put(v int) {}
func (s *Store) PutCtx(ctx context.Context, v int) {}
type Cache struct{}
func (c *Cache) Put(v int) {}
func (c *Cache) PutCtx(ctx context.Context, v int) {}
type Log struct{}
func (l *Log) Write(v int) {}
`

func TestCtxTwinFlagsDroppedContext(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/api/api.go": twinDecls,
		"internal/use/use.go": `package use
import "context"
type store interface{ Put(int) }
func With(ctx context.Context, s store) {
	s.Put(1)
}
func Without(s store) {
	s.Put(1) // no ctx in scope: fine
}`,
	}, CtxTwin)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "PutCtx") {
		t.Fatalf("got %v, want exactly the in-scope Put flagged", messages(diags))
	}
}

func TestCtxTwinUnanimityRequired(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/api/api.go": twinDecls + `
type Bag struct{}
func (b *Bag) Put(v int) {} // no PutCtx: disqualifies the name
`,
		"internal/use/use.go": `package use
import "context"
type store interface{ Put(int) }
func With(ctx context.Context, s store) { s.Put(1) }`,
	}, CtxTwin)
	if len(diags) != 0 {
		t.Fatalf("got %v, want none: Bag.Put has no twin", messages(diags))
	}
}

func TestCtxTwinFreeFunctionDisqualifies(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/api/api.go": twinDecls + `
func Put(v int) {}
`,
		"internal/use/use.go": `package use
import "context"
type store interface{ Put(int) }
func With(ctx context.Context, s store) { s.Put(1) }`,
	}, CtxTwin)
	if len(diags) != 0 {
		t.Fatalf("got %v, want none: free Put disqualifies", messages(diags))
	}
}

func TestCtxTwinAllowsTwinWrapperDelegation(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/api/api.go": twinDecls + `
type Disk struct{}
func (d *Disk) Save(v int) {}
func (d *Disk) SaveCtx(ctx context.Context, v int) { d.Save(v) }
func (d *Disk) other(ctx context.Context) { d.Save(1) }
`,
	}, CtxTwin)
	// SaveCtx's own delegation to Save is the legitimate wrapper call; only
	// the differently-named caller is flagged.
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "SaveCtx") {
		t.Fatalf("got %v, want only the non-wrapper call flagged", messages(diags))
	}
}

func TestCtxTwinSkipsPackageCalls(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/api/api.go": twinDecls,
		"internal/use/use.go": `package use
import (
	"context"
	"internal/api"
)
func With(ctx context.Context) { api.Helper() }`,
	}, CtxTwin)
	if len(diags) != 0 {
		t.Fatalf("got %v, want none: pkg-level calls have no receiver", messages(diags))
	}
}

func TestNilSafe(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/metrics/metrics.go": `package metrics
type Counter struct{ v uint64 }
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}
func (c *Counter) Reset() { c.v = 0 }
func (c *Counter) value() uint64 { return c.v } // unexported: exempt
type helper struct{}
func (h *helper) Do() {} // not an instrument type: exempt
`,
	}, NilSafe)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "Reset") {
		t.Fatalf("got %v, want exactly Reset flagged", messages(diags))
	}
}

func TestNilSafeLateCheckCounts(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/trace/trace.go": `package trace
type Span struct{ n int }
func (s *Span) End(err error) {
	x := 1
	_ = x
	if s != nil {
		s.n++
	}
}`,
	}, NilSafe)
	if len(diags) != 0 {
		t.Fatalf("got %v, want none: the nil check need not be first", messages(diags))
	}
}

func TestHasCtxTwinIndex(t *testing.T) {
	fset := token.NewFileSet()
	f := parseSource(t, fset, "internal/api/api.go", twinDecls)
	ix := BuildIndex([]*Package{{Dir: "internal/api", Files: []*File{f}}})
	if !ix.HasCtxTwin("Put") {
		t.Error("Put should qualify: both Store and Cache declare PutCtx")
	}
	if ix.HasCtxTwin("Write") {
		t.Error("Write has no twin anywhere")
	}
	if ix.HasCtxTwin("PutCtx") {
		t.Error("the twin itself must not qualify")
	}
	if ix.HasCtxTwin("Absent") {
		t.Error("undeclared names must not qualify")
	}
}

func TestLockOrderFlagsInversions(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/core/base.go": `package core
type Base struct{ nodes *nodeTable }
func (b *Base) good(addr string) {
	s := b.nodes.shard(addr)
	s.mu.Lock()
	b.mu.Lock() // shard then b.mu: the documented order
	b.mu.Unlock()
	s.mu.Unlock()
}
func (b *Base) inverted(addr string) {
	b.mu.Lock()
	s := b.nodes.shard(addr)
	s.mu.Lock() // b.mu then shard: inversion
	s.mu.Unlock()
	b.mu.Unlock()
}
func (b *Base) released(addr string) {
	b.mu.Lock()
	b.mu.Unlock()
	s := b.nodes.shard(addr)
	s.mu.Lock() // b.mu already released: fine
	s.mu.Unlock()
}`,
	}, LockOrder)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "shard.mu") {
		t.Fatalf("got %v, want exactly the inverted acquisition flagged", messages(diags))
	}
}

func TestLockOrderFlagsTableCallUnderConfigLock(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/core/base.go": `package core
type Base struct{ nodes *nodeTable }
func (b *Base) bad() {
	b.mu.Lock()
	defer b.mu.Unlock()
	a, d := b.nodes.counts() // takes every shard lock under b.mu
	_, _ = a, d
}
func (b *Base) good() {
	a, d := b.nodes.counts()
	b.mu.Lock()
	defer b.mu.Unlock()
	_, _ = a, d
}
func (b *Base) accessor(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	_ = b.nodes.shard(addr) // shard() itself does not lock
}`,
	}, LockOrder)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "b.mu is held") {
		t.Fatalf("got %v, want exactly the counts-under-b.mu call flagged", messages(diags))
	}
}

func TestLockOrderDoubleShardAndSched(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/core/base.go": `package core
type Base struct{ nodes *nodeTable }
func (b *Base) twoShards(x, y string) {
	s1 := b.nodes.shard(x)
	s2 := b.nodes.shard(y)
	s1.mu.Lock()
	s2.mu.Lock() // two shard locks at once
	s2.mu.Unlock()
	s1.mu.Unlock()
}
func (b *Base) schedUnderShard(addr string) {
	s := b.nodes.shard(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	b.sched.Cancel(addr, 1) // ascending: allowed
}`,
		"internal/lease/scheduler.go": `package lease
type Scheduler struct{}
func (s *Scheduler) ok() {
	s.mu.Lock()
	defer s.mu.Unlock()
}`,
	}, LockOrder)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "shard.mu while shard.mu") {
		t.Fatalf("got %v, want exactly the double shard lock flagged", messages(diags))
	}
}

func TestLockOrderClosureGetsFreshHeldSet(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/core/base.go": `package core
type Base struct{ nodes *nodeTable }
func (b *Base) spawn(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() {
		s := b.nodes.shard(addr)
		s.mu.Lock() // runs after spawn returns; not under b.mu
		s.mu.Unlock()
	}()
}`,
	}, LockOrder)
	if len(diags) != 0 {
		t.Fatalf("got %v, want none: goroutine bodies do not inherit held locks", messages(diags))
	}
}

func TestSpanEndFlagsUseAfterEnd(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/core/push.go": `package core
func (b *Base) push() {
	ctx, sp := b.tracer.StartSpan(b.ctx, "push")
	sp.Tag("k", "v")
	sp.End(nil)
	sc := sp.Context() // use after the span went back to the pool
	_, _ = ctx, sc
}`,
	}, SpanEnd)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "after End") {
		t.Fatalf("got %v, want exactly the post-End Context call flagged", messages(diags))
	}
}

func TestSpanEndAllowsDeferAndReassignment(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/core/push.go": `package core
func (b *Base) deferred() {
	_, sp := b.tracer.StartSpan(b.ctx, "op")
	defer sp.End(nil)
	sp.Tag("k", "v") // defer never starts a dead region
}
func (b *Base) reassigned() {
	sp := b.tracer.StartSpanFrom(parent, "a")
	sp.End(nil)
	sp = b.tracer.StartSpanFrom(parent, "b")
	sp.Tag("k", "v") // fresh span, live again
	sp.End(nil)
}
func (b *Base) branches(fail bool) {
	_, sp := b.tracer.StartSpan(b.ctx, "op")
	if fail {
		sp.End(errBoom)
		return
	}
	sp.End(nil)
}
func notASpan() {
	w := newWindow()
	w.End(5)
	w.Len() // End on a non-span type: exempt
}`,
	}, SpanEnd)
	if len(diags) != 0 {
		t.Fatalf("got %v, want none", messages(diags))
	}
}

func TestWireCoverFlagsFieldDrift(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/core/codec.go": `package core
type Rec struct {
	ID   string
	Name string
	Seq  int
}
func (r Rec) MarshalWire(e *Encoder) {
	e.String(r.ID)
	e.String(r.Name)
	e.Varint(int64(r.Seq))
}
func (r *Rec) UnmarshalWire(d *Decoder) error {
	r.ID = d.String()
	r.Seq = int(d.Varint())
	return d.Err()
}`,
	}, WireCover)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "never reads field Name") {
		t.Fatalf("got %v, want exactly the missing Name read flagged", messages(diags))
	}
}

func TestWireCoverFlagsMissingPairAndAcceptsParity(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/core/codec.go": `package core
type Half struct{ ID string }
func (h Half) MarshalWire(e *Encoder) { e.String(h.ID) }
type Full struct {
	ID    string
	Items []Item
}
func (f Full) MarshalWire(e *Encoder) {
	e.String(f.ID)
	e.Len(len(f.Items))
	for _, it := range f.Items {
		it.MarshalWire(e)
	}
}
func (f *Full) UnmarshalWire(d *Decoder) error {
	f.ID = d.String()
	if n := d.Len(); n > 0 {
		f.Items = make([]Item, n)
		for i := range f.Items {
			if err := f.Items[i].UnmarshalWire(d); err != nil {
				return err
			}
		}
	}
	return d.Err()
}`,
	}, WireCover)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "no UnmarshalWire") {
		t.Fatalf("got %v, want exactly the unpaired Half flagged", messages(diags))
	}
}

func TestShippedFlagsUnusedExports(t *testing.T) {
	diags := runOn(t, map[string]string{
		"internal/store/store.go": `package store
type Store struct{}
func New() *Store { return &Store{} }
func (s *Store) Put(k string) {}
func (s *Store) Compact() {}
func Orphan() {}`,
		"internal/store/store_test.go": `package store
import "testing"
func TestCompact(t *testing.T) { New().Compact() }`,
		"cmd/app/main.go": `package main
import "repro/internal/store"
func main() { store.New().Put("k") }`,
	}, Shipped)
	got := strings.Join(messages(diags), "\n")
	if len(diags) != 2 || !strings.Contains(got, "Compact has no use outside tests") || !strings.Contains(got, "Orphan has no use outside tests") {
		t.Fatalf("got %v, want Compact (called only from a test) and Orphan flagged", messages(diags))
	}
}

func TestShippedAcceptsShippedUses(t *testing.T) {
	diags := runOn(t, map[string]string{
		// MarshalWire is reached only through the Marshaler interface.
		"internal/wire/wire.go": `package wire
type Encoder struct{}
type Marshaler interface{ MarshalWire(e *Encoder) }
func Marshal(m Marshaler) []byte { return nil }`,
		"internal/core/msg.go": `package core
import "repro/internal/wire"
type Msg struct{}
func (m Msg) MarshalWire(e *wire.Encoder) {}
func Send() []byte { return wire.Marshal(Msg{}) }
func Demo() {}
func CLI() {}
// Set jumps a test clock.
//
//lint:allow shipped (test seam: tests set the clock)
func Set() {}`,
		"examples/demo/main.go": `package main
import "repro/internal/core"
func main() { core.Demo(); core.Send() }`,
		"cmd/tool/main.go": `package main
import "repro/internal/core"
func main() { core.CLI() }`,
		// Only tests import testutil, so nothing in it needs a caller.
		"internal/testutil/testutil.go": `package testutil
func WaitFor() {}`,
		"internal/core/msg_test.go": `package core
import "repro/internal/testutil"
func helper() { testutil.WaitFor() }`,
	}, Shipped)
	if len(diags) != 0 {
		t.Fatalf("got %v, want none", messages(diags))
	}
}
