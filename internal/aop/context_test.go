package aop

import (
	"testing"

	"repro/internal/lvm"
)

func TestContextAbort(t *testing.T) {
	var c Context
	if c.Aborted() != nil {
		t.Fatal("fresh context should not be aborted")
	}
	c.Abort("denied")
	err := c.Aborted()
	if err == nil {
		t.Fatal("want abort error")
	}
	thrown, ok := err.(*lvm.Thrown)
	if !ok || thrown.Msg != "denied" {
		t.Fatalf("got %v", err)
	}
	// First abort wins.
	c.Abort("second")
	if c.Aborted().(*lvm.Thrown).Msg != "denied" {
		t.Error("second abort should not override first")
	}
	c.Reset()
	if c.Aborted() != nil {
		t.Error("Reset should clear the veto")
	}
	c.Abortf("no access for %s", "bob")
	if c.Aborted().(*lvm.Thrown).Msg != "no access for bob" {
		t.Error("Abortf formatting broken")
	}
}

func TestContextArgs(t *testing.T) {
	c := Context{Args: []lvm.Value{lvm.Int(1), lvm.Str("x")}}
	if c.Arg(0).I != 1 || c.Arg(1).S != "x" {
		t.Error("Arg lookup broken")
	}
	if c.Arg(-1).K != lvm.KNil || c.Arg(5).K != lvm.KNil {
		t.Error("out-of-range Arg should be nil")
	}
	c.SetArg(0, lvm.Int(42))
	if c.Arg(0).I != 42 {
		t.Error("SetArg broken")
	}
	c.SetArg(9, lvm.Int(1)) // silently ignored
	if len(c.Args) != 2 {
		t.Error("SetArg out of range must not grow args")
	}
}

func TestContextMeta(t *testing.T) {
	var c Context
	if _, ok := c.Get("caller"); ok {
		t.Error("empty meta should miss")
	}
	c.Put("caller", lvm.Str("alice"))
	v, ok := c.Get("caller")
	if !ok || v.S != "alice" {
		t.Error("meta roundtrip broken")
	}
	c.Reset()
	if _, ok := c.Get("caller"); ok {
		t.Error("Reset should clear meta")
	}
}

func TestSignatureOf(t *testing.T) {
	prog := lvm.MustAssemble(`
class Motor
  method void rotate(int deg)
    retv
  end
end`)
	got := SignatureOf(prog.Method("Motor", "rotate"))
	want := Signature{Class: "Motor", Method: "rotate", Return: "void", Params: []string{"int"}}
	if got.Class != want.Class || got.Method != want.Method || got.Return != want.Return ||
		len(got.Params) != 1 || got.Params[0] != "int" {
		t.Errorf("SignatureOf = %v, want %v", got, want)
	}
	if got.String() != "void Motor.rotate(int)" {
		t.Errorf("String = %q", got.String())
	}
}
