package aop

import (
	"strings"
	"testing"
	"testing/quick"
)

func sig(class, method, ret string, params ...string) Signature {
	return Signature{Class: class, Method: method, Return: ret, Params: params}
}

func TestPatternMatchMethod(t *testing.T) {
	tests := []struct {
		pattern string
		sig     Signature
		want    bool
	}{
		// The paper's flagship example: void *.send*(byte[] x, ..)
		{"void *.send*(bytes, ..)", sig("Net", "sendPacket", "void", "bytes"), true},
		{"void *.send*(bytes, ..)", sig("Net", "sendPacket", "void", "bytes", "int"), true},
		{"void *.send*(bytes, ..)", sig("Net", "sendPacket", "void", "int"), false},
		{"void *.send*(bytes, ..)", sig("Net", "receive", "void", "bytes"), false},
		{"void *.send*(bytes, ..)", sig("Net", "sendPacket", "int", "bytes"), false},
		// Any-method patterns.
		{"*.*(..)", sig("Motor", "rotate", "void", "int"), true},
		{"Motor.*(..)", sig("Motor", "rotate", "void", "int"), true},
		{"Motor.*(..)", sig("Sensor", "read", "int"), false},
		// Exact parameter lists.
		{"int Math.add(int, int)", sig("Math", "add", "int", "int", "int"), true},
		{"int Math.add(int, int)", sig("Math", "add", "int", "int"), false},
		{"int Math.add(int, int)", sig("Math", "add", "int", "int", "int", "int"), false},
		// No-arg pattern: () matches only zero params.
		{"*.init()", sig("Counter", "init", "void"), true},
		{"*.init()", sig("Counter", "init", "void", "int"), false},
		// Bare (..) matches any arity.
		{"*.init(..)", sig("Counter", "init", "void", "int"), true},
		// Return type defaults to any.
		{"*.read(..)", sig("Sensor", "read", "int"), true},
		{"*.read(..)", sig("Sensor", "read", "bytes"), true},
		// Multiple wildcards in one component.
		{"*.*Arm*(..)", sig("Robot", "moveArmFast", "void"), true},
		{"*.*Arm*(..)", sig("Robot", "moveLeg", "void"), false},
		// Parameter with binding name (paper writes "byte[] x").
		{"void *.send*(bytes x, ..)", sig("Net", "send", "void", "bytes"), true},
		// Wildcard params.
		{"*.*(*, int)", sig("C", "m", "void", "str", "int"), true},
		{"*.*(*, int)", sig("C", "m", "void", "str", "bool"), false},
		// Field patterns never match methods.
		{"Motor.speed", sig("Motor", "speed", "int"), false},
	}
	for _, tt := range tests {
		t.Run(tt.pattern+"/"+tt.sig.String(), func(t *testing.T) {
			p, err := ParsePattern(tt.pattern)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.MatchMethod(tt.sig); got != tt.want {
				t.Errorf("MatchMethod(%v) = %v, want %v", tt.sig, got, tt.want)
			}
		})
	}
}

func TestPatternMatchField(t *testing.T) {
	tests := []struct {
		pattern      string
		class, field string
		want         bool
	}{
		{"Motor.speed", "Motor", "speed", true},
		{"Motor.speed", "Motor", "power", false},
		{"Motor.*", "Motor", "power", true},
		{"*.state", "Robot", "state", true},
		{"*.*", "Anything", "whatever", true},
		{"Mot*.sp*", "Motor", "speed", true},
		// Method patterns never match fields.
		{"Motor.speed(..)", "Motor", "speed", false},
	}
	for _, tt := range tests {
		p, err := ParsePattern(tt.pattern)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.MatchField(tt.class, tt.field); got != tt.want {
			t.Errorf("%q.MatchField(%s, %s) = %v, want %v", tt.pattern, tt.class, tt.field, got, tt.want)
		}
	}
}

func TestParsePatternErrors(t *testing.T) {
	bad := []string{
		"",
		"noclassdot(..)",
		"Class.method(..",
		"void *.m(a, .., b)",
		"justaname",
		".leadingdot",
		"trailing.",
		"*.m(,)",
	}
	for _, src := range bad {
		if _, err := ParsePattern(src); err == nil {
			t.Errorf("ParsePattern(%q) should fail", src)
		}
	}
}

func TestGlobProperties(t *testing.T) {
	// A literal pattern matches only itself.
	if err := quick.Check(func(s string) bool {
		if strings.ContainsRune(s, '*') {
			return true
		}
		return glob(s, s)
	}, nil); err != nil {
		t.Error(err)
	}
	// prefix* matches prefix+anything.
	if err := quick.Check(func(prefix, rest string) bool {
		if strings.ContainsRune(prefix, '*') {
			return true
		}
		return glob(prefix+"*", prefix+rest)
	}, nil); err != nil {
		t.Error(err)
	}
	// *suffix matches anything+suffix.
	if err := quick.Check(func(rest, suffix string) bool {
		if strings.ContainsRune(suffix, '*') {
			return true
		}
		return glob("*"+suffix, rest+suffix)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestAspectValidate(t *testing.T) {
	body := BodyFunc(func(ctx *Context) error { return nil })
	valid := &Aspect{
		Name:    "log",
		Advices: []Advice{BeforeCall("*.*(..)", body)},
	}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid aspect rejected: %v", err)
	}
	cases := []*Aspect{
		{Name: "", Advices: []Advice{BeforeCall("*.*(..)", body)}},
		{Name: "empty"},
		{Name: "nobody", Advices: []Advice{{When: Before, Cut: Cut(MethodEntry, "*.*(..)")}}},
		{Name: "nopattern", Advices: []Advice{{When: Before, Cut: Crosscut{Kind: MethodEntry}, Body: body}}},
		{Name: "badwhen", Advices: []Advice{{Cut: Cut(MethodEntry, "*.*(..)"), Body: body}}},
		{Name: "badkind", Advices: []Advice{{When: Before, Cut: Crosscut{Kind: 0, Pat: Cut(MethodEntry, "*.*(..)").Pat}, Body: body}}},
	}
	for _, a := range cases {
		if err := a.Validate(); err == nil {
			t.Errorf("aspect %q should be invalid", a.Name)
		}
	}
}

func TestKindAndWhenStrings(t *testing.T) {
	if MethodEntry.String() != "method-entry" || FieldSet.String() != "field-set" {
		t.Error("Kind.String mismatch")
	}
	if Before.String() != "before" || After.String() != "after" {
		t.Error("When.String mismatch")
	}
	if !strings.HasPrefix(Kind(99).String(), "kind(") {
		t.Error("unknown kind should render numerically")
	}
}
