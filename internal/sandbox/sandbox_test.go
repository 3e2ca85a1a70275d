package sandbox

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/lvm"
)

func baseHost() lvm.HostMap {
	return lvm.HostMap{
		"store.put": func(args []lvm.Value) (lvm.Value, error) { return lvm.Bool(true), nil },
		"net.post":  func(args []lvm.Value) (lvm.Value, error) { return lvm.Bool(true), nil },
		"ctx.arg":   func(args []lvm.Value) (lvm.Value, error) { return lvm.Int(1), nil },
		"log.info":  func(args []lvm.Value) (lvm.Value, error) { return lvm.Nil(), nil },
	}
}

func TestGatedHostAllowsGranted(t *testing.T) {
	h := NewHost(baseHost(), NewPerms(CapStore))
	if _, err := h.HostCall("store.put", nil); err != nil {
		t.Fatalf("granted call failed: %v", err)
	}
	if h.CallCount("store.put") != 1 {
		t.Error("call count not tracked")
	}
}

func TestGatedHostBlocksUngranted(t *testing.T) {
	h := NewHost(baseHost(), NewPerms(CapStore))
	_, err := h.HostCall("net.post", nil)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("want Violation, got %v", err)
	}
	if v.Capability != CapNet || v.Fn != "net.post" {
		t.Errorf("violation = %+v", v)
	}
	if h.CallCount("net.post") != 0 {
		t.Error("blocked call must not be counted")
	}
}

func TestCtxAndLogAlwaysGranted(t *testing.T) {
	h := NewHost(baseHost(), NewPerms())
	if _, err := h.HostCall("ctx.arg", nil); err != nil {
		t.Errorf("ctx should always be allowed: %v", err)
	}
	if _, err := h.HostCall("log.info", nil); err != nil {
		t.Errorf("log should always be allowed: %v", err)
	}
}

func TestViolationNotCatchableByLVM(t *testing.T) {
	// An extension that tries to swallow the security violation with its own
	// handler must still fail: Violation is not an lvm.Thrown.
	prog := lvm.MustAssemble(`
class Evil
  method void sneak()
  s:
    hostcall net.post 0
    pop
    retv
  e:
  h:
    pop
    retv
    handler s e h
  end
end`)
	gated := NewHost(baseHost(), NewPerms(CapStore))
	in := lvm.NewInterp(prog, gated)
	_, err := in.Invoke(prog.Method("Evil", "sneak"), prog.Class("Evil").New(), nil)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("violation was swallowed: err = %v", err)
	}
}

func TestAllowAllPolicy(t *testing.T) {
	perms, err := AllowAll().Grant("anyone", []Capability{CapNet, CapStore})
	if err != nil {
		t.Fatal(err)
	}
	if !perms.Allows(CapNet) || !perms.Allows(CapStore) {
		t.Error("AllowAll should grant requested caps")
	}
	if perms.Allows(CapDevice) {
		t.Error("unrequested capability granted")
	}
}

func TestAllowlistPolicy(t *testing.T) {
	p := Allowlist(CapStore, CapSession)
	perms, err := p.Grant("hall-1", []Capability{CapStore})
	if err != nil {
		t.Fatal(err)
	}
	if !perms.Allows(CapStore) {
		t.Error("listed capability not granted")
	}
	if _, err := p.Grant("hall-1", []Capability{CapNet}); err == nil {
		t.Error("unlisted capability should be rejected")
	}
}

func TestPermsString(t *testing.T) {
	p := NewPerms(CapNet, CapStore)
	if p.String() != "{net,store}" {
		t.Errorf("String = %s", p.String())
	}
	if len(p.List()) != 2 {
		t.Errorf("List = %v", p.List())
	}
}

func TestPermsDiff(t *testing.T) {
	p := NewPerms(CapStore, CapLog)
	missing := p.Diff([]Capability{CapNet, CapStore, CapClock})
	if len(missing) != 2 || missing[0] != CapClock || missing[1] != CapNet {
		t.Errorf("Diff = %v, want [clock net]", missing)
	}
	if got := p.Diff([]Capability{CapStore}); len(got) != 0 {
		t.Errorf("covered set should diff empty, got %v", got)
	}
}

func TestViolationNamesGrantedSet(t *testing.T) {
	h := NewHost(baseHost(), NewPerms(CapStore))
	_, err := h.HostCall("net.post", nil)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("want Violation, got %v", err)
	}
	if !v.Granted.Allows(CapStore) {
		t.Errorf("violation should carry the granted set, got %s", v.Granted)
	}
	msg := v.Error()
	if !strings.Contains(msg, "net.post") || !strings.Contains(msg, `"net"`) || !strings.Contains(msg, "store") {
		t.Errorf("violation message should name call, capability and grants: %s", msg)
	}
}

func TestAllowlistErrorNamesMissingAndPolicy(t *testing.T) {
	p := Allowlist(CapStore, CapSession)
	_, err := p.Grant("hall-1", []Capability{CapNet, CapClock})
	if err == nil {
		t.Fatal("want rejection")
	}
	for _, want := range []string{"net", "clock", "store"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error should mention %q: %v", want, err)
		}
	}
}

func TestCapabilityOf(t *testing.T) {
	tests := []struct {
		fn   string
		want Capability
	}{
		{"store.put", CapStore},
		{"net.post", CapNet},
		{"bare", Capability("bare")},
	}
	for _, tt := range tests {
		if got := CapabilityOf(tt.fn); got != tt.want {
			t.Errorf("CapabilityOf(%s) = %s", tt.fn, got)
		}
	}
}

func TestProveSkipsCheckAndCounting(t *testing.T) {
	h := NewHost(baseHost(), NewPerms(CapStore))
	h.Prove("store.put")
	if direct := h.Prechecked("store.put"); direct == nil {
		t.Fatal("proven function should have a direct host")
	} else if _, err := direct(nil); err != nil {
		t.Fatalf("direct dispatch failed: %v", err)
	}
	// The fast path bypasses the audit counter by contract.
	if h.CallCount("store.put") != 0 {
		t.Error("direct dispatch must not touch the checked counter")
	}
	// Unproven functions stay on the checked path.
	if h.Prechecked("log.info") != nil {
		t.Error("unproven function should not get a direct host")
	}
}

func TestProveCannotWidenGrant(t *testing.T) {
	h := NewHost(baseHost(), NewPerms(CapStore))
	h.Prove("net.post") // not granted: must be ignored, not proven
	if h.Prechecked("net.post") != nil {
		t.Fatal("Prove must refuse functions outside the grant")
	}
	_, err := h.HostCall("net.post", nil)
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("ungranted call must still violate, got %v", err)
	}
}

func TestInterpUsesPrecheckedFastPath(t *testing.T) {
	prog := lvm.MustAssemble(`
class C
  method int m()
    push "k"
    hostcall store.put 1
    ret
  end
end`)
	h := NewHost(baseHost(), NewPerms(CapStore))
	h.Prove("store.put")
	in := lvm.NewInterp(prog, h)
	v, err := in.Invoke(prog.Class("C").Methods["m"], nil, nil)
	if err != nil || v.K != lvm.KBool {
		t.Fatalf("invoke = %v, %v", v, err)
	}
	if h.CallCount("store.put") != 0 {
		t.Error("interpreter took the checked path for a proven call")
	}
}
