package weave

import (
	"context"
	"strings"
	"testing"

	"repro/internal/aop"
	"repro/internal/lvm"
)

func traceBody(log *[]string, tag string) aop.Body {
	return aop.BodyFunc(func(ctx *aop.Context) error {
		*log = append(*log, tag)
		return nil
	})
}

func simpleAspect(name string, pattern string, body aop.Body) *aop.Aspect {
	return &aop.Aspect{Name: name, Advices: []aop.Advice{aop.BeforeCall(pattern, body)}}
}

func TestInsertWithdraw(t *testing.T) {
	w := New()
	site := w.RegisterMethodSite(aop.MethodEntry, aop.Signature{Class: "Motor", Method: "rotate", Return: "void"})
	if site.Active() {
		t.Fatal("fresh site should be inactive")
	}

	var log []string
	a := simpleAspect("log", "Motor.*(..)", traceBody(&log, "hit"))
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	if !site.Active() {
		t.Fatal("site should be active after insert")
	}
	ctx := &aop.Context{Sig: site.Sig}
	if err := site.Dispatch(ctx); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 {
		t.Fatalf("advice ran %d times, want 1", len(log))
	}

	if err := w.Withdraw(context.Background(), "log"); err != nil {
		t.Fatal(err)
	}
	if site.Active() {
		t.Fatal("site should be inactive after withdraw")
	}
	if w.Has("log") {
		t.Error("Has should report withdrawn aspect gone")
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	w := New()
	body := aop.BodyFunc(func(*aop.Context) error { return nil })
	if err := w.Insert(simpleAspect("a", "*.*(..)", body)); err != nil {
		t.Fatal(err)
	}
	if err := w.Insert(simpleAspect("a", "*.*(..)", body)); err == nil {
		t.Fatal("duplicate insert should fail")
	}
}

func TestWithdrawUnknownFails(t *testing.T) {
	w := New()
	if err := w.Withdraw(context.Background(), "ghost"); err == nil {
		t.Fatal("withdrawing unknown aspect should fail")
	}
}

func TestLateSiteRegistrationSeesAspects(t *testing.T) {
	w := New()
	var log []string
	if err := w.Insert(simpleAspect("log", "Motor.*(..)", traceBody(&log, "hit"))); err != nil {
		t.Fatal(err)
	}
	// Site registered after the aspect (app JIT-compiled later).
	site := w.RegisterMethodSite(aop.MethodEntry, aop.Signature{Class: "Motor", Method: "stop", Return: "void"})
	if !site.Active() {
		t.Fatal("late site should be woven against existing aspects")
	}
}

func TestPriorityOrdering(t *testing.T) {
	w := New()
	site := w.RegisterMethodSite(aop.MethodEntry, aop.Signature{Class: "C", Method: "m", Return: "void"})
	var log []string
	high := simpleAspect("second", "C.*(..)", traceBody(&log, "second"))
	high.Priority = 10
	low := simpleAspect("first", "C.*(..)", traceBody(&log, "first"))
	low.Priority = 1
	// Insert in reverse priority order; dispatch must still honour priority.
	if err := w.Insert(high); err != nil {
		t.Fatal(err)
	}
	if err := w.Insert(low); err != nil {
		t.Fatal(err)
	}
	if err := site.Dispatch(&aop.Context{}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(log, ",") != "first,second" {
		t.Errorf("order = %v", log)
	}
}

func TestSamePriorityUsesInsertionOrder(t *testing.T) {
	w := New()
	site := w.RegisterMethodSite(aop.MethodEntry, aop.Signature{Class: "C", Method: "m", Return: "void"})
	var log []string
	if err := w.Insert(simpleAspect("a", "C.*(..)", traceBody(&log, "a"))); err != nil {
		t.Fatal(err)
	}
	if err := w.Insert(simpleAspect("b", "C.*(..)", traceBody(&log, "b"))); err != nil {
		t.Fatal(err)
	}
	if err := site.Dispatch(&aop.Context{}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(log, ",") != "a,b" {
		t.Errorf("order = %v", log)
	}
}

func TestVetoStopsChain(t *testing.T) {
	w := New()
	site := w.RegisterMethodSite(aop.MethodEntry, aop.Signature{Class: "C", Method: "m", Return: "void"})
	var log []string
	deny := &aop.Aspect{Name: "deny", Advices: []aop.Advice{
		aop.BeforeCall("C.*(..)", aop.BodyFunc(func(ctx *aop.Context) error {
			ctx.Abort("access denied")
			return nil
		})),
	}}
	if err := w.Insert(deny); err != nil {
		t.Fatal(err)
	}
	late := simpleAspect("late", "C.*(..)", traceBody(&log, "late"))
	if err := w.Insert(late); err != nil {
		t.Fatal(err)
	}
	err := site.Dispatch(&aop.Context{})
	if err == nil || !strings.Contains(err.Error(), "access denied") {
		t.Fatalf("want veto error, got %v", err)
	}
	if len(log) != 0 {
		t.Error("advice after veto must not run")
	}
}

func TestReplaceSwapsAtomically(t *testing.T) {
	w := New()
	site := w.RegisterMethodSite(aop.MethodEntry, aop.Signature{Class: "C", Method: "m", Return: "void"})
	var log []string
	shutdownRan := false
	old := simpleAspect("policy", "C.*(..)", traceBody(&log, "v1"))
	old.OnShutdown = func() { shutdownRan = true }
	if err := w.Insert(old); err != nil {
		t.Fatal(err)
	}
	v2 := simpleAspect("policy", "C.*(..)", traceBody(&log, "v2"))
	if err := w.Replace(context.Background(), "policy", v2); err != nil {
		t.Fatal(err)
	}
	if !shutdownRan {
		t.Error("old aspect's shutdown procedure must run on replace")
	}
	if err := site.Dispatch(&aop.Context{}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(log, ",") != "v2" {
		t.Errorf("log = %v", log)
	}
	if got := w.Aspects(); len(got) != 1 || got[0] != "policy" {
		t.Errorf("Aspects = %v", got)
	}
}

func TestReplaceUnknownFails(t *testing.T) {
	w := New()
	if err := w.Replace(context.Background(), "nope", simpleAspect("x", "*.*(..)", aop.BodyFunc(func(*aop.Context) error { return nil }))); err == nil {
		t.Fatal("replace of unknown aspect should fail")
	}
}

func TestOnActivateFailureBlocksInsert(t *testing.T) {
	w := New()
	a := simpleAspect("x", "*.*(..)", aop.BodyFunc(func(*aop.Context) error { return nil }))
	a.OnActivate = func() error { return lvm.Throwf("cannot init") }
	if err := w.Insert(a); err == nil {
		t.Fatal("insert should fail when activation fails")
	}
	if w.Has("x") {
		t.Error("failed aspect must not be registered")
	}
}

func TestAspectsInsertionOrder(t *testing.T) {
	w := New()
	body := aop.BodyFunc(func(*aop.Context) error { return nil })
	for _, n := range []string{"one", "two", "three"} {
		if err := w.Insert(simpleAspect(n, "*.*(..)", body)); err != nil {
			t.Fatal(err)
		}
	}
	got := w.Aspects()
	if strings.Join(got, ",") != "one,two,three" {
		t.Errorf("Aspects = %v", got)
	}
}

func TestFieldSiteMatching(t *testing.T) {
	w := New()
	setSite := w.RegisterFieldSite(aop.FieldSet, "Motor", "speed")
	getSite := w.RegisterFieldSite(aop.FieldGet, "Motor", "speed")
	var log []string
	a := &aop.Aspect{Name: "watch", Advices: []aop.Advice{
		aop.OnFieldSet("Motor.*", traceBody(&log, "set")),
	}}
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	if !setSite.Active() {
		t.Error("set site should match Motor.*")
	}
	if getSite.Active() {
		t.Error("get site must not match a FieldSet crosscut")
	}
}

func TestSiteCounts(t *testing.T) {
	w := New()
	w.RegisterMethodSite(aop.MethodEntry, aop.Signature{Class: "A", Method: "m", Return: "void"})
	w.RegisterMethodSite(aop.MethodEntry, aop.Signature{Class: "B", Method: "m", Return: "void"})
	if w.SiteCount() != 2 {
		t.Errorf("SiteCount = %d", w.SiteCount())
	}
	body := aop.BodyFunc(func(*aop.Context) error { return nil })
	if err := w.Insert(simpleAspect("a", "A.*(..)", body)); err != nil {
		t.Fatal(err)
	}
	if w.ActiveSiteCount() != 1 {
		t.Errorf("ActiveSiteCount = %d", w.ActiveSiteCount())
	}
}

func TestMethodHooksInvoke(t *testing.T) {
	w := New()
	hooks := w.HookMethod(aop.Signature{Class: "Svc", Method: "echo", Return: "str", Params: []string{"str"}})

	called := 0
	fn := func(args []lvm.Value) (lvm.Value, error) {
		called++
		return lvm.Str("echo:" + args[0].S), nil
	}

	// No advice: straight through.
	v, err := hooks.Invoke(nil, []lvm.Value{lvm.Str("hi")}, fn)
	if err != nil || v.S != "echo:hi" {
		t.Fatalf("plain invoke = %v, %v", v, err)
	}

	// Entry advice rewrites the argument; exit advice rewrites the result.
	a := &aop.Aspect{Name: "shout", Advices: []aop.Advice{
		aop.BeforeCall("Svc.*(..)", aop.BodyFunc(func(ctx *aop.Context) error {
			ctx.SetArg(0, lvm.Str(strings.ToUpper(ctx.Arg(0).S)))
			return nil
		})),
		aop.AfterCall("Svc.*(..)", aop.BodyFunc(func(ctx *aop.Context) error {
			ctx.SetResult(lvm.Str(ctx.Result.S + "!"))
			return nil
		})),
	}}
	if err := w.Insert(a); err != nil {
		t.Fatal(err)
	}
	v, err = hooks.Invoke(nil, []lvm.Value{lvm.Str("hi")}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if v.S != "echo:HI!" {
		t.Errorf("adapted invoke = %q, want echo:HI!", v.S)
	}

	// Veto.
	deny := &aop.Aspect{Name: "deny", Priority: -1, Advices: []aop.Advice{
		aop.BeforeCall("Svc.*(..)", aop.BodyFunc(func(ctx *aop.Context) error {
			ctx.Abort("no")
			return nil
		})),
	}}
	if err := w.Insert(deny); err != nil {
		t.Fatal(err)
	}
	before := called
	if _, err = hooks.Invoke(nil, []lvm.Value{lvm.Str("hi")}, fn); err == nil {
		t.Fatal("vetoed call should error")
	}
	if called != before {
		t.Error("vetoed call must not execute the target")
	}
}

// TestWeaverRandomizedConsistency inserts random aspect sets over random
// sites and cross-checks the weaver's chain state against a brute-force
// matcher after every mutation.
func TestWeaverRandomizedConsistency(t *testing.T) {
	classes := []string{"Motor", "Sensor", "Robot"}
	methods := []string{"rotate", "read", "stop", "moveArm"}
	patterns := []string{
		"*.*(..)", "Motor.*(..)", "*.ro*(..)", "Sensor.read(..)",
		"Robot.moveArm(..)", "*.stop(..)",
	}

	w := New()
	var sites []*Site
	var sigs []aop.Signature
	for _, c := range classes {
		for _, m := range methods {
			sig := aop.Signature{Class: c, Method: m, Return: "void"}
			sites = append(sites, w.RegisterMethodSite(aop.MethodEntry, sig))
			sigs = append(sigs, sig)
		}
	}

	body := aop.BodyFunc(func(*aop.Context) error { return nil })
	active := make(map[string]string) // aspect name -> pattern

	check := func() {
		t.Helper()
		for i, site := range sites {
			want := 0
			for _, pat := range active {
				if aop.MustParsePattern(pat).MatchMethod(sigs[i]) {
					want++
				}
			}
			if got := site.AdviceCount(); got != want {
				t.Fatalf("site %v: advice count %d, want %d (active %v)", sigs[i], got, want, active)
			}
		}
	}

	// Deterministic pseudo-random walk over insert/withdraw operations.
	seed := uint64(42)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	for step := 0; step < 200; step++ {
		name := "a" + string(rune('0'+next(8)))
		if _, ok := active[name]; ok && next(2) == 0 {
			if err := w.Withdraw(context.Background(), name); err != nil {
				t.Fatal(err)
			}
			delete(active, name)
		} else if _, ok := active[name]; !ok {
			pat := patterns[next(len(patterns))]
			a := &aop.Aspect{Name: name, Advices: []aop.Advice{aop.BeforeCall(pat, body)}}
			if err := w.Insert(a); err != nil {
				t.Fatal(err)
			}
			active[name] = pat
		}
		check()
	}
}
