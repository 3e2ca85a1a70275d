package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/aop"
	"repro/internal/lvm"
	"repro/internal/lvm/analysis"
	"repro/internal/metrics"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/transport"
)

// codeExt wraps one mobile advice source as a complete extension.
func codeExt(name string, caps []string, source string) Extension {
	return Extension{
		ID:      "ext/" + name,
		Name:    name,
		Version: 1,
		Advices: []AdviceSpec{{
			Name:    "a",
			Kind:    KindCallBefore,
			Pattern: "Motor.*(..)",
			Code:    source,
		}},
		Caps: caps,
	}
}

const auditSource = `
class Ext
  method void advice()
    hostcall clock.now 0
    hostcall store.put 1
    pop
  end
end`

func TestAnalyzeExtensionInfersCodeCaps(t *testing.T) {
	rep, err := AnalyzeExtension(codeExt("audit", []string{"clock", "store"}, auditSource))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"clock", "store"}; !reflect.DeepEqual(rep.Caps, want) {
		t.Errorf("Caps = %v, want %v", rep.Caps, want)
	}
	if want := []string{"clock.now", "store.put"}; !reflect.DeepEqual(rep.HostCalls, want) {
		t.Errorf("HostCalls = %v, want %v", rep.HostCalls, want)
	}
	if !rep.FuelBounded || rep.FuelSteps == 0 {
		t.Errorf("fuel = bounded %v steps %d, want a bounded nonzero cost", rep.FuelBounded, rep.FuelSteps)
	}
	if want := []sandbox.Capability{"clock", "store"}; !reflect.DeepEqual(rep.Demand(), want) {
		t.Errorf("Demand = %v, want %v", rep.Demand(), want)
	}
}

func TestAnalyzeExtensionBuiltinRegistry(t *testing.T) {
	RegisterBuiltinCaps("admtest-persist", sandbox.CapStore)
	ext := Extension{
		ID: "ext/b", Name: "b", Version: 1,
		Advices: []AdviceSpec{{Name: "a", Kind: KindCallBefore, Pattern: "*.*(..)", Builtin: "admtest-persist"}},
	}
	rep, err := AnalyzeExtension(ext)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"store"}; !reflect.DeepEqual(rep.Caps, want) {
		t.Errorf("Caps = %v, want %v", rep.Caps, want)
	}
	if len(rep.Warnings) != 0 {
		t.Errorf("unexpected warnings %v", rep.Warnings)
	}
}

func TestAnalyzeExtensionUnknownBuiltinFallsBack(t *testing.T) {
	ext := Extension{
		ID: "ext/u", Name: "u", Version: 1,
		Advices: []AdviceSpec{{Name: "a", Kind: KindCallBefore, Pattern: "*.*(..)", Builtin: "admtest-nosuch"}},
		Caps:    []string{"net"},
	}
	rep, err := AnalyzeExtension(ext)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"net"}; !reflect.DeepEqual(rep.Caps, want) {
		t.Errorf("Caps = %v, want declared fallback %v", rep.Caps, want)
	}
	if len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "no registered capability set") {
		t.Errorf("warnings = %v, want an unregistered-builtin warning", rep.Warnings)
	}
}

func TestAnalyzeExtensionRejectsBrokenCode(t *testing.T) {
	// Type confusion: add on a string operand.
	_, err := AnalyzeExtension(codeExt("broken", nil, `
class Ext
  method void advice()
    push "x"
    push 1
    add
    pop
  end
end`))
	if err == nil || !strings.Contains(err.Error(), "add") {
		t.Fatalf("want typed-verification rejection, got %v", err)
	}
}

func TestCheckAdmission(t *testing.T) {
	ext := codeExt("audit", []string{"clock", "store"}, auditSource)
	rep, err := AnalyzeExtension(ext)
	if err != nil {
		t.Fatal(err)
	}

	// Demand covered by declaration and policy: admitted.
	if err := CheckAdmission(ext, rep, sandbox.Allowlist(sandbox.CapClock, sandbox.CapStore), nil, "hall-1"); err != nil {
		t.Errorf("covered extension rejected: %v", err)
	}
	// Nil policy still requires declaration, nothing more.
	if err := CheckAdmission(ext, rep, nil, nil, "hall-1"); err != nil {
		t.Errorf("nil-policy admission failed: %v", err)
	}

	// Undeclared capability: the inferred demand exceeds ext.Caps.
	under := codeExt("audit", []string{"clock"}, auditSource)
	rep2, err := AnalyzeExtension(under)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAdmission(under, rep2, nil, nil, "hall-1"); err == nil ||
		!strings.Contains(err.Error(), "undeclared capabilities [store]") {
		t.Errorf("want undeclared-capability rejection naming store, got %v", err)
	}

	// Policy refuses part of the demand.
	err = CheckAdmission(ext, rep, sandbox.Allowlist(sandbox.CapStore), nil, "hall-1")
	if err == nil || !strings.Contains(err.Error(), "clock") {
		t.Errorf("want policy rejection naming clock, got %v", err)
	}
}

func TestCheckAdmissionExemptsAlwaysGranted(t *testing.T) {
	// ctx.* and log.* are granted by every sandbox host; an extension using
	// only those needs no declared caps and passes any policy.
	ext := codeExt("quiet", nil, `
class Ext
  method void advice()
    hostcall ctx.method 0
    hostcall log.info 1
    pop
  end
end`)
	rep, err := AnalyzeExtension(ext)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Demand()) != 0 {
		t.Fatalf("Demand = %v, want empty", rep.Demand())
	}
	if err := CheckAdmission(ext, rep, sandbox.Allowlist(), nil, "hall-1"); err != nil {
		t.Errorf("ctx/log-only extension rejected: %v", err)
	}
}

func TestBaseRejectsOverPrivilegedExtension(t *testing.T) {
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewInProc()
	base, err := NewBase(BaseConfig{
		Name:      "base-1",
		Addr:      "base-1",
		Caller:    fabric.Node("base-1"),
		Signer:    signer,
		Admission: sandbox.Allowlist(sandbox.CapStore, sandbox.CapClock),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	reg := metrics.New()
	base.Instrument(reg)

	// Declares net honestly, but the admission policy only grants store+clock.
	leak := codeExt("leak", []string{"net"}, `
class Ext
  method void advice()
    hostcall net.post 0
    pop
  end
end`)
	if err := base.AddExtension(leak); err == nil || !strings.Contains(err.Error(), "admission") {
		t.Fatalf("want admission rejection, got %v", err)
	}
	if got := reg.Counter("base.admission_rejected").Value(); got != 1 {
		t.Errorf("base.admission_rejected = %d, want 1", got)
	}
	if _, ok := base.AnalysisFor("leak"); ok {
		t.Error("rejected extension left a stored analysis report")
	}
	base.mu.Lock()
	policySet := len(base.extensions)
	base.mu.Unlock()
	if policySet != 0 {
		t.Error("rejected extension joined the policy set")
	}

	// A compliant extension is admitted and its report stored and served.
	ok := codeExt("audit", []string{"clock", "store"}, auditSource)
	if err := base.AddExtension(ok); err != nil {
		t.Fatal(err)
	}
	rep, have := base.AnalysisFor("audit")
	if !have || !reflect.DeepEqual(rep.Caps, []string{"clock", "store"}) {
		t.Errorf("stored report = %+v (have %v)", rep, have)
	}

	// The stored report is retrievable over the ops RPC (midasctl analyze
	// path).
	mux := transport.NewMux()
	base.ServeOn(mux)
	transport.ServeOps(mux, metrics.NewHandler(nil, nil, base.Mounts()...))
	stop, err := fabric.Serve("base-1", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	body, err := transport.Ops(ctx, fabric.Node("ctl"), "base-1", "/analyze?ext=audit")
	if err != nil {
		t.Fatal(err)
	}
	var served AnalysisReport
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served.Caps, []string{"clock", "store"}) {
		t.Errorf("served report caps = %v", served.Caps)
	}
	if _, err := transport.Ops(ctx, fabric.Node("ctl"), "base-1", "/analyze?ext=leak"); err == nil {
		t.Error("/analyze served a report for a rejected extension")
	}
}

func TestBaseRejectsUndeclaredCapabilities(t *testing.T) {
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	fabric := transport.NewInProc()
	base, err := NewBase(BaseConfig{
		Name: "base-1", Addr: "base-1", Caller: fabric.Node("base-1"), Signer: signer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	// No Admission policy, but the net usage is undeclared: still rejected.
	sneaky := codeExt("sneaky", nil, `
class Ext
  method void advice()
    hostcall net.post 0
    pop
  end
end`)
	if err := base.AddExtension(sneaky); err == nil ||
		!strings.Contains(err.Error(), "undeclared capabilities [net]") {
		t.Fatalf("want undeclared-capability rejection, got %v", err)
	}
}

func TestAdviceMaxSteps(t *testing.T) {
	if got := adviceMaxSteps(analysis.Fuel{Bounded: true, Steps: 12}); got != 20 {
		t.Errorf("bounded budget = %d, want 20", got)
	}
	if got := adviceMaxSteps(analysis.Unbounded()); got != defaultAdviceMaxSteps {
		t.Errorf("unbounded budget = %d, want the default cap", got)
	}
}

func TestCompileAdviceBudgetEnforced(t *testing.T) {
	// A bounded advice runs within its statically-derived budget; the budget
	// is tight enough that the analysis, not the legacy cap, set it.
	a, err := analyzeAdvice(auditSource)
	if err != nil {
		t.Fatal(err)
	}
	if got := adviceMaxSteps(a.rep.Fuel); got >= defaultAdviceMaxSteps {
		t.Errorf("budget = %d, want a tight static bound", got)
	}
	body, err := a.compile(hostEcho{})
	if err != nil {
		t.Fatal(err)
	}
	if err := body.Exec(nil); err != nil {
		t.Errorf("advice exceeded its statically-derived budget: %v", err)
	}

	// The compiled body runs under exactly that budget: a three-instruction
	// loop given a bound of 10 steps (a budget of 18) makes 6 host calls.
	loop, err := analyzeAdvice(`
class Ext
  method void advice()
  loop:
    hostcall log.info 0
    pop
    jmp loop
  end
end`)
	if err != nil {
		t.Fatal(err)
	}
	rep := *loop.rep
	rep.Fuel = analysis.Fuel{Bounded: true, Steps: 10}
	loop.rep = &rep
	host := sandbox.NewHost(lvm.HostMap{
		"log.info": func([]lvm.Value) (lvm.Value, error) { return lvm.Nil(), nil },
	}, sandbox.NewPerms())
	body, err = loop.compile(host)
	if err != nil {
		t.Fatal(err)
	}
	if err := body.Exec(&aop.Context{}); !errors.Is(err, lvm.ErrStepBudget) {
		t.Fatalf("looping advice: err = %v, want the step budget", err)
	}
	if got := host.CallCount("log.info"); got != 6 {
		t.Errorf("looping advice made %d host calls under an 18-step budget, want 6", got)
	}
}

// hostEcho answers every host call with nil.
type hostEcho struct{}

func (hostEcho) HostCall(string, []lvm.Value) (lvm.Value, error) { return lvm.Nil(), nil }

const exfilBenchSource = `
class Ext
  method void advice()
    hostcall ctx.class 0
    push "."
    concat
    hostcall ctx.method 0
    concat
    hostcall net.post 1
    pop
  end
end`

// BenchmarkAdmissionCheck measures the one-time cost of catching an
// over-privileged extension at the base: full static analysis plus the policy
// check. Paid once per AddExtension, never per call.
func BenchmarkAdmissionCheck(b *testing.B) {
	ext := codeExt("leak", []string{"net"}, exfilBenchSource)
	policy := sandbox.Allowlist(sandbox.CapStore)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := AnalyzeExtension(ext)
		if err != nil {
			b.Fatal(err)
		}
		if err := CheckAdmission(ext, rep, policy, nil, "hall-1"); err == nil {
			b.Fatal("over-privileged extension admitted")
		}
	}
}

// BenchmarkRuntimeViolation measures the alternative: the same advice woven
// anyway and aborted by the sandbox on every single dispatch.
func BenchmarkRuntimeViolation(b *testing.B) {
	host := sandbox.NewHost(lvm.HostMap{}, sandbox.NewPerms())
	body, err := CompileAdvice(exfilBenchSource, host)
	if err != nil {
		b.Fatal(err)
	}
	ctx := &aop.Context{Sig: aop.Signature{Class: "Motor", Method: "rotate"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := body.Exec(ctx); err == nil {
			b.Fatal("gated call slipped through")
		}
	}
}

const launderSource = `
class Ext
  field stash
  method void advice()
    load self
    call fetch 0
    pop
    load self
    getfield stash
    hostcall net.post 1
    pop
    retv
  end
  method int fetch()
    load self
    push "secret"
    hostcall store.get 1
    setfield stash
    push 0
    ret
  end
end`

func TestAnalyzeExtensionInfersFlows(t *testing.T) {
	ext := codeExt("launder", []string{"net", "store"}, launderSource)
	rep, err := AnalyzeExtension(ext)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"store->net"}; !reflect.DeepEqual(rep.Flows, want) {
		t.Errorf("Flows = %v, want %v", rep.Flows, want)
	}
}

func TestCheckAdmissionRefusesUndeclaredFlow(t *testing.T) {
	// Declares both caps honestly — the old cap-set check passes — but not
	// the store->net flow its bytecode exercises.
	ext := codeExt("launder", []string{"net", "store"}, launderSource)
	rep, err := AnalyzeExtension(ext)
	if err != nil {
		t.Fatal(err)
	}
	err = CheckAdmission(ext, rep, nil, nil, "hall-1")
	var fe *FlowError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FlowError, got %v", err)
	}
	if fe.Rule != "store->net" || !fe.Undeclared {
		t.Errorf("FlowError = %+v", fe)
	}

	// Declaring the flow admits it (nil allowlist).
	ext.Flows = []string{"store->net"}
	if err := CheckAdmission(ext, rep, nil, nil, "hall-1"); err != nil {
		t.Errorf("declared flow rejected: %v", err)
	}

	// A non-nil allowlist without the rule refuses even a declared flow.
	err = CheckAdmission(ext, rep, nil, []string{"device->store"}, "hall-1")
	if !errors.As(err, &fe) || fe.Undeclared {
		t.Errorf("want allowlist FlowError, got %v", err)
	}
	// And one including it admits.
	if err := CheckAdmission(ext, rep, nil, []string{"store->net"}, "hall-1"); err != nil {
		t.Errorf("allowlisted flow rejected: %v", err)
	}
}

func TestValidateFlowRules(t *testing.T) {
	ext := codeExt("f", []string{"store"}, auditSource)
	ext.Flows = []string{"store->net"}
	if err := ext.Validate(); err != nil {
		t.Errorf("well-formed flow rule rejected: %v", err)
	}
	for _, bad := range []string{"", "store", "->net", "store->", "a->b->c"} {
		ext.Flows = []string{bad}
		if err := ext.Validate(); err == nil {
			t.Errorf("malformed flow rule %q accepted", bad)
		}
	}
}

const dispatchBenchSource = `
class Ext
  method void advice()
    push "k"
    hostcall store.get 1
    pop
  end
end`

// BenchmarkHostDispatchChecked measures one advice execution whose store.get
// goes through the sandbox capability gate: permission lookup, audit mutex,
// call counter, then the inner host.
func BenchmarkHostDispatchChecked(b *testing.B) {
	host := sandbox.NewHost(hostEcho{}, sandbox.NewPerms(sandbox.CapStore))
	body, err := CompileAdvice(dispatchBenchSource, host)
	if err != nil {
		b.Fatal(err)
	}
	ctx := &aop.Context{Sig: aop.Signature{Class: "Motor", Method: "rotate"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := body.Exec(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostDispatchProven measures the same advice after admission
// analysis proved the capability check dead: the compiled advice calls
// store.get's function directly, skipping the gate entirely.
func BenchmarkHostDispatchProven(b *testing.B) {
	host := sandbox.NewHost(hostEcho{}, sandbox.NewPerms(sandbox.CapStore))
	host.Prove("store.get")
	body, err := CompileAdvice(dispatchBenchSource, host)
	if err != nil {
		b.Fatal(err)
	}
	ctx := &aop.Context{Sig: aop.Signature{Class: "Motor", Method: "rotate"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := body.Exec(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
