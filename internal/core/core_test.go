package core

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/lvm"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/weave"
	"repro/internal/wire"
)

// testNode bundles a receiver with its weaver and a trusted signer.
type testNode struct {
	weaver   *weave.Weaver
	receiver *Receiver
	signer   *sign.Signer
	clk      *clock.Manual
	hostLog  *[]string
}

func newTestNode(t testing.TB) *testNode {
	t.Helper()
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	trust := sign.NewTrustStore()
	trust.Trust("hall-1", signer.PublicKey())
	clk := clock.NewManual(time.Unix(1000, 0))
	weaver := weave.New()

	var hostLog []string
	host := lvm.HostMap{
		"log.info": func(args []lvm.Value) (lvm.Value, error) {
			hostLog = append(hostLog, args[0].String())
			return lvm.Nil(), nil
		},
		"net.post": func(args []lvm.Value) (lvm.Value, error) {
			hostLog = append(hostLog, "net.post")
			return lvm.Bool(true), nil
		},
	}

	builtins := NewBuiltins()
	builtins.Register("count", func(env *Env, cfg map[string]string) (aop.Body, error) {
		return aop.BodyFunc(func(ctx *aop.Context) error {
			_, err := env.Host.HostCall("log.info", []lvm.Value{lvm.Str("count:" + ctx.Sig.Method)})
			return err
		}), nil
	})
	builtins.RegisterBundle(Extension{
		ID:      "system/base-bundle",
		Name:    "base-bundle",
		Version: 1,
		Advices: []AdviceSpec{{
			Name:    "bundled",
			Kind:    KindCallBefore,
			Pattern: "*.*(..)",
			Builtin: "count",
		}},
	})

	receiver, err := NewReceiver(ReceiverConfig{
		NodeName: "robot1",
		Addr:     "robot1",
		Weaver:   weaver,
		Trust:    trust,
		Policy:   sandbox.AllowAll(),
		Clock:    clk,
		Host:     host,
		Builtins: builtins,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &testNode{weaver: weaver, receiver: receiver, signer: signer, clk: clk, hostLog: &hostLog}
}

func builtinExt(name string, version int) Extension {
	return Extension{
		ID:      "ext/" + name,
		Name:    name,
		Version: version,
		Advices: []AdviceSpec{{
			Name:    "advice",
			Kind:    KindCallBefore,
			Pattern: "Motor.*(..)",
			Builtin: "count",
		}},
		Caps: []string{"log"},
	}
}

func TestInstallWeavesAspect(t *testing.T) {
	n := newTestNode(t)
	site := n.weaver.RegisterMethodSite(aop.MethodEntry, aop.Signature{Class: "Motor", Method: "rotate", Return: "void"})

	signed, err := Sign(n.signer, builtinExt("monitor", 1))
	if err != nil {
		t.Fatal(err)
	}
	leaseID, err := n.receiver.Install(signed, "base-1", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if leaseID == "" {
		t.Fatal("no lease issued")
	}
	if !site.Active() {
		t.Fatal("aspect not woven")
	}
	if err := site.Dispatch(&aop.Context{Sig: site.Sig}); err != nil {
		t.Fatal(err)
	}
	if len(*n.hostLog) != 1 || (*n.hostLog)[0] != "count:rotate" {
		t.Errorf("hostLog = %v", *n.hostLog)
	}
	infos := n.receiver.Installed()
	if len(infos) != 1 || infos[0].Name != "monitor" || infos[0].BaseAddr != "base-1" {
		t.Errorf("Installed = %+v", infos)
	}
}

// TestWithdrawVisibleWithActivity pins that a removal becomes visible all at
// once: whoever sees Has turn false finds the withdraw event already in
// Activity and the aspect already gone from the weaver.
func TestWithdrawVisibleWithActivity(t *testing.T) {
	n := newTestNode(t)
	signed, err := Sign(n.signer, builtinExt("monitor", 1))
	if err != nil {
		t.Fatal(err)
	}
	withdrawals := func() int {
		c := 0
		for _, a := range n.receiver.Activity() {
			if a.Event == "withdraw" && a.Ext == "monitor" {
				c++
			}
		}
		return c
	}
	for round := 1; round <= 50; round++ {
		if _, err := n.receiver.Install(signed, "base-1", time.Minute); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- n.receiver.Withdraw(context.Background(), "monitor") }()
		for n.receiver.Has("monitor") {
			runtime.Gosched()
		}
		if got := withdrawals(); got != round {
			t.Fatalf("round %d: Has is false but Activity holds %d withdraw events", round, got)
		}
		if n.weaver.Has("monitor") {
			t.Fatalf("round %d: Has is false but the aspect is still woven", round)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestInstallRejectsUntrusted(t *testing.T) {
	n := newTestNode(t)
	mallory, _ := sign.NewSigner("mallory")
	signed, err := Sign(mallory, builtinExt("evil", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.receiver.Install(signed, "base-x", time.Minute); !errors.Is(err, sign.ErrUntrustedSigner) {
		t.Fatalf("want untrusted, got %v", err)
	}
	if n.receiver.Has("evil") {
		t.Error("untrusted extension installed")
	}
	acts := n.receiver.Activity()
	if len(acts) != 1 || acts[0].Event != "reject" {
		t.Errorf("activity = %+v", acts)
	}
}

func TestInstallRejectsTampered(t *testing.T) {
	n := newTestNode(t)
	signed, err := Sign(n.signer, builtinExt("monitor", 1))
	if err != nil {
		t.Fatal(err)
	}
	signed.Ext.Advices[0].Pattern = "*.*(..)" // tamper after signing
	if _, err := n.receiver.Install(signed, "base-1", time.Minute); !errors.Is(err, sign.ErrBadSignature) {
		t.Fatalf("want bad signature, got %v", err)
	}
}

// An extension signed with empty (not nil) maps and slices — the logger
// preset's Config is one — still verifies after the wire codec, which
// decodes them as nil, carried it to the receiver.
func TestSignatureSurvivesWireWithEmptyFields(t *testing.T) {
	signer, err := sign.NewSigner("hall-1")
	if err != nil {
		t.Fatal(err)
	}
	ext := Extension{
		ID: "hall-1/logger-0", Name: "logger", Version: 1,
		Advices: []AdviceSpec{{
			Name: "log", Kind: KindCallBefore, Pattern: "*.*(..)",
			Builtin: "logger", Config: map[string]string{},
		}},
		Requires: []string{},
		Caps:     []string{},
		Meta:     map[string]string{},
	}
	signed, err := Sign(signer, ext)
	if err != nil {
		t.Fatal(err)
	}
	var got InstallReq
	if err := wire.Unmarshal(wire.Marshal(InstallReq{Signed: signed, BaseAddr: "base-1", DurMillis: 1000}), &got); err != nil {
		t.Fatal(err)
	}
	if got.Signed.Ext.Advices[0].Config != nil || got.Signed.Ext.Meta != nil {
		t.Fatalf("wire codec kept empty maps: %+v", got.Signed.Ext)
	}
	trust := sign.NewTrustStore()
	trust.Trust(signer.Name, signer.PublicKey())
	if err := got.Signed.Verify(trust); err != nil {
		t.Fatalf("verify after the wire: %v", err)
	}
}

// Canonical bytes of an extension whose maps and slices are nil or
// non-empty are plain JSON, so signatures made before empty fields were
// normalised stay valid.
func TestCanonicalUnchangedForNilAndNonEmptyFields(t *testing.T) {
	for _, ext := range []Extension{
		builtinExt("monitor", 1),
		{ID: "x", Name: "x", Advices: []AdviceSpec{{Name: "a", Config: map[string]string{"k": "v"}}},
			Requires: []string{"session"}, Caps: []string{"log"}, Flows: []string{"store->net"}, Meta: map[string]string{"m": "1"}},
		{ID: "y", Name: "y"},
	} {
		want, err := json.Marshal(&ext)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ext.Canonical()
		if err != nil || string(got) != string(want) {
			t.Fatalf("Canonical = %s, %v; want %s", got, err, want)
		}
	}
}

func TestLeaseExpiryWithdraws(t *testing.T) {
	n := newTestNode(t)
	signed, _ := Sign(n.signer, builtinExt("monitor", 1))
	if _, err := n.receiver.Install(signed, "base-1", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if !n.receiver.Has("monitor") {
		t.Fatal("not installed")
	}
	n.clk.Advance(11 * time.Second)
	n.receiver.Grantor().ExpireNow()
	if n.receiver.Has("monitor") {
		t.Fatal("extension survived lease expiry")
	}
	if n.weaver.Has("monitor") {
		t.Fatal("aspect survived lease expiry")
	}
	// Activity shows install then expire.
	var events []string
	for _, a := range n.receiver.Activity() {
		events = append(events, a.Event)
	}
	if strings.Join(events, ",") != "install,expire" {
		t.Errorf("events = %v", events)
	}
}

func TestRenewKeepsAlive(t *testing.T) {
	n := newTestNode(t)
	signed, _ := Sign(n.signer, builtinExt("monitor", 1))
	id, err := n.receiver.Install(signed, "base-1", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	n.clk.Advance(8 * time.Second)
	if err := n.receiver.Renew(id, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	n.clk.Advance(8 * time.Second)
	n.receiver.Grantor().ExpireNow()
	if !n.receiver.Has("monitor") {
		t.Fatal("renewed extension expired")
	}
}

func TestReplaceRequiresHigherVersion(t *testing.T) {
	n := newTestNode(t)
	signed, _ := Sign(n.signer, builtinExt("monitor", 2))
	id, err := n.receiver.Install(signed, "base-1", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Same version from the same base is an idempotent re-push (a retry
	// whose first response was lost): it refreshes the lease and returns
	// the original handle.
	signed2, _ := Sign(n.signer, builtinExt("monitor", 2))
	id2, err := n.receiver.Install(signed2, "base-1", time.Minute)
	if err != nil {
		t.Fatalf("idempotent re-push: %v", err)
	}
	if id2 != id {
		t.Fatalf("re-push returned lease %q, want original %q", id2, id)
	}
	// Same version from a different base is a conflict.
	if _, err := n.receiver.Install(signed2, "base-2", time.Minute); err == nil {
		t.Fatal("same version from another base should fail")
	}
	// A lower version is a stale duplicate.
	signed1, _ := Sign(n.signer, builtinExt("monitor", 1))
	if _, err := n.receiver.Install(signed1, "base-1", time.Minute); err == nil {
		t.Fatal("stale lower version should fail")
	}
	// Higher version replaces.
	signed3, _ := Sign(n.signer, builtinExt("monitor", 3))
	if _, err := n.receiver.Install(signed3, "base-1", time.Minute); err != nil {
		t.Fatal(err)
	}
	infos := n.receiver.Installed()
	if len(infos) != 1 || infos[0].Version != 3 {
		t.Errorf("Installed = %+v", infos)
	}
}

func TestImplicitExtensionAutoInstalled(t *testing.T) {
	n := newTestNode(t)
	ext := builtinExt("needsbundle", 1)
	ext.Requires = []string{"base-bundle"}
	signed, _ := Sign(n.signer, ext)
	if _, err := n.receiver.Install(signed, "base-1", time.Minute); err != nil {
		t.Fatal(err)
	}
	if !n.receiver.Has("base-bundle") {
		t.Fatal("implicit extension not installed")
	}
	infos := n.receiver.Installed()
	if len(infos) != 2 {
		t.Fatalf("Installed = %+v", infos)
	}
	for _, info := range infos {
		if info.Name == "base-bundle" && !info.System {
			t.Error("implicit extension not marked system")
		}
	}
	// Withdrawing the dependent removes the implicit one too.
	if err := n.receiver.Withdraw(context.Background(), "needsbundle"); err != nil {
		t.Fatal(err)
	}
	if n.receiver.Has("base-bundle") {
		t.Error("implicit extension survived last dependent")
	}
}

func TestImplicitSharedByDependents(t *testing.T) {
	n := newTestNode(t)
	e1 := builtinExt("dep1", 1)
	e1.Requires = []string{"base-bundle"}
	e2 := builtinExt("dep2", 1)
	e2.Requires = []string{"base-bundle"}
	s1, _ := Sign(n.signer, e1)
	s2, _ := Sign(n.signer, e2)
	if _, err := n.receiver.Install(s1, "base-1", time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := n.receiver.Install(s2, "base-1", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := n.receiver.Withdraw(context.Background(), "dep1"); err != nil {
		t.Fatal(err)
	}
	if !n.receiver.Has("base-bundle") {
		t.Fatal("implicit extension removed while dep2 still needs it")
	}
	if err := n.receiver.Withdraw(context.Background(), "dep2"); err != nil {
		t.Fatal(err)
	}
	if n.receiver.Has("base-bundle") {
		t.Fatal("implicit extension survived all dependents")
	}
}

func TestMissingRequireRejects(t *testing.T) {
	n := newTestNode(t)
	ext := builtinExt("needy", 1)
	ext.Requires = []string{"no-such-bundle"}
	signed, _ := Sign(n.signer, ext)
	if _, err := n.receiver.Install(signed, "base-1", time.Minute); err == nil {
		t.Fatal("missing implicit bundle should reject")
	}
}

func TestPolicyDeniesCapability(t *testing.T) {
	signer, _ := sign.NewSigner("hall-1")
	trust := sign.NewTrustStore()
	trust.Trust("hall-1", signer.PublicKey())
	builtins := NewBuiltins()
	builtins.Register("count", func(*Env, map[string]string) (aop.Body, error) {
		return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
	})
	r, err := NewReceiver(ReceiverConfig{
		NodeName: "n",
		Weaver:   weave.New(),
		Trust:    trust,
		Policy:   sandbox.Allowlist(sandbox.CapLog), // no net
		Host:     lvm.HostMap{},
		Builtins: builtins,
	})
	if err != nil {
		t.Fatal(err)
	}
	ext := builtinExt("greedy", 1)
	ext.Caps = []string{"net"}
	signed, _ := Sign(signer, ext)
	if _, err := r.Install(signed, "base-1", time.Minute); err == nil {
		t.Fatal("policy should reject ungrantable capability")
	}
}

func TestMobileCodeAdvice(t *testing.T) {
	n := newTestNode(t)
	site := n.weaver.RegisterMethodSite(aop.MethodEntry, aop.Signature{
		Class: "Motor", Method: "rotate", Return: "void", Params: []string{"int"},
	})
	// Mobile LVM advice: veto rotations above 90 degrees.
	ext := Extension{
		ID:      "ext/limit",
		Name:    "limit",
		Version: 1,
		Advices: []AdviceSpec{{
			Name:    "limit-rotate",
			Kind:    KindCallBefore,
			Pattern: "Motor.rotate(..)",
			Code: `
class Ext
  method void advice()
    push 0
    hostcall ctx.arg 1
    push 90
    gt
    jmpf ok
    push "rotation too large"
    hostcall ctx.abort 1
    pop
  ok:
    retv
  end
end`,
		}},
	}
	signed, err := Sign(n.signer, ext)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.receiver.Install(signed, "base-1", time.Minute); err != nil {
		t.Fatal(err)
	}

	ctx := &aop.Context{Sig: site.Sig, Args: []lvm.Value{lvm.Int(45)}}
	if err := site.Dispatch(ctx); err != nil {
		t.Fatalf("45 degrees should pass: %v", err)
	}
	ctx2 := &aop.Context{Sig: site.Sig, Args: []lvm.Value{lvm.Int(120)}}
	err = site.Dispatch(ctx2)
	if err == nil || !strings.Contains(err.Error(), "rotation too large") {
		t.Fatalf("120 degrees should be vetoed, got %v", err)
	}
}

func TestMobileCodeSandboxed(t *testing.T) {
	n := newTestNode(t)
	n.weaver.RegisterMethodSite(aop.MethodEntry, aop.Signature{Class: "Motor", Method: "rotate", Return: "void"})
	// Mobile code that tries to use the net without requesting the cap.
	ext := Extension{
		ID:      "ext/sneaky",
		Name:    "sneaky",
		Version: 1,
		Advices: []AdviceSpec{{
			Name:    "leak",
			Kind:    KindCallBefore,
			Pattern: "Motor.*(..)",
			Code: `
class Ext
  method void advice()
    hostcall net.post 0
    pop
  end
end`,
		}},
		// Note: no Caps requested.
	}
	signed, _ := Sign(n.signer, ext)
	// The pre-weave static analysis catches the undeclared capability before
	// the advice is ever woven, let alone run.
	if _, err := n.receiver.Install(signed, "base-1", time.Minute); err == nil ||
		!strings.Contains(err.Error(), "beyond grant") {
		t.Fatalf("want pre-weave capability rejection, got %v", err)
	}
	site := n.weaver.RegisterMethodSite(aop.MethodEntry, aop.Signature{Class: "Motor", Method: "stop", Return: "void"})
	if err := site.Dispatch(&aop.Context{Sig: site.Sig}); err != nil {
		t.Fatalf("rejected extension still intercepts: %v", err)
	}
	if len(*n.hostLog) != 0 {
		t.Error("gated call leaked through")
	}
}

func TestMobileCodeRuntimeSandboxDefense(t *testing.T) {
	// Defense in depth: even if an over-privileged advice body is compiled
	// against a node host (bypassing install-time analysis), the sandbox still
	// refuses the call at run time and the violation names the missing
	// capability and the granted set.
	var hostLog []string
	inner := lvm.HostMap{
		"net.post": func(args []lvm.Value) (lvm.Value, error) {
			hostLog = append(hostLog, "net.post")
			return lvm.Bool(true), nil
		},
	}
	host := sandbox.NewHost(inner, sandbox.NewPerms())
	body, err := CompileAdvice(`
class Ext
  method void advice()
    hostcall net.post 0
    pop
  end
end`, host)
	if err != nil {
		t.Fatal(err)
	}
	err = body.Exec(&aop.Context{Sig: aop.Signature{Class: "Motor", Method: "rotate"}})
	var v *sandbox.Violation
	if !errors.As(err, &v) {
		t.Fatalf("want sandbox violation, got %v", err)
	}
	if v.Capability != sandbox.CapNet {
		t.Errorf("violation names cap %q, want net", v.Capability)
	}
	if len(hostLog) != 0 {
		t.Error("gated call leaked through")
	}
}

func TestShutdownBodyRuns(t *testing.T) {
	n := newTestNode(t)
	shut := false
	n.receiver.cfg.Builtins.Register("shutter", func(*Env, map[string]string) (aop.Body, error) {
		return &shutterBody{onShutdown: func() { shut = true }}, nil
	})
	ext := builtinExt("s", 1)
	ext.Advices[0].Builtin = "shutter"
	signed, _ := Sign(n.signer, ext)
	if _, err := n.receiver.Install(signed, "base-1", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := n.receiver.Withdraw(context.Background(), "s"); err != nil {
		t.Fatal(err)
	}
	if !shut {
		t.Error("shutdown procedure did not run")
	}
}

type shutterBody struct {
	onShutdown func()
}

func (s *shutterBody) Exec(*aop.Context) error { return nil }
func (s *shutterBody) Shutdown()               { s.onShutdown() }

func TestExtensionValidate(t *testing.T) {
	good := builtinExt("x", 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Extension){
		func(e *Extension) { e.ID = "" },
		func(e *Extension) { e.Name = "" },
		func(e *Extension) { e.Advices = nil },
		func(e *Extension) { e.Advices[0].Kind = "weird" },
		func(e *Extension) { e.Advices[0].Pattern = "" },
		func(e *Extension) { e.Advices[0].Pattern = "(((" },
		func(e *Extension) { e.Advices[0].Builtin = "" },
		func(e *Extension) { e.Advices[0].Code = "x" /* both set */ },
	}
	for i, mutate := range cases {
		e := builtinExt("x", 1)
		mutate(&e)
		if err := e.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestCompileAdviceErrors(t *testing.T) {
	cases := []string{
		"not assembly at all (",
		"class NotExt\nmethod void advice()\nretv\nend\nend",
		"class Ext\nmethod void other()\nretv\nend\nend",
		"class Ext\nmethod void advice(int x)\nretv\nend\nend",
	}
	for i, src := range cases {
		if _, err := CompileAdvice(src, nil); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestMalformedMobileCodeRejected(t *testing.T) {
	n := newTestNode(t)
	// Assembles fine but fails bytecode verification: pops an empty stack.
	ext := Extension{
		ID:      "ext/broken",
		Name:    "broken",
		Version: 1,
		Advices: []AdviceSpec{{
			Name:    "bad",
			Kind:    KindCallBefore,
			Pattern: "*.*(..)",
			Code: `
class Ext
  method void advice()
    pop
    retv
  end
end`,
		}},
	}
	signed, err := Sign(n.signer, ext)
	if err != nil {
		t.Fatal(err)
	}
	_, err = n.receiver.Install(signed, "base-1", time.Minute)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("verifier did not reject malformed code: %v", err)
	}
	if n.receiver.Has("broken") {
		t.Fatal("malformed extension installed")
	}
}
