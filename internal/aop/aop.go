// Package aop defines the aspect model of the platform: join points,
// crosscut signature patterns, advice and aspects. It mirrors the PROSE
// programming model in which aspects are first-class entities assembled from
// a crosscut (a signature pattern selecting join points) and a crosscut
// action (the advice body executed there).
package aop

import (
	"fmt"
	"strings"

	"repro/internal/lvm"
)

// Kind identifies the category of a join point.
type Kind uint8

// Join point kinds supported by the weaver, matching the stub sites PROSE
// plants during JIT compilation: method boundaries, field accesses and
// exception throws/handlers. Field-get advice fires after the load (the value
// is Result and may be rewritten); exception advice fires at the throw site
// or at handler entry.
const (
	MethodEntry Kind = iota + 1
	MethodExit
	FieldGet
	FieldSet
	ExceptionThrow
	ExceptionHandler
)

var kindNames = map[Kind]string{
	MethodEntry:      "method-entry",
	MethodExit:       "method-exit",
	FieldGet:         "field-get",
	FieldSet:         "field-set",
	ExceptionThrow:   "exception-throw",
	ExceptionHandler: "exception-handler",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Signature describes a concrete method for pattern matching purposes.
type Signature struct {
	Class  string
	Method string
	Return string
	Params []string
}

// String renders "ret Class.Method(p1, p2)".
func (s Signature) String() string {
	return fmt.Sprintf("%s %s.%s(%s)", s.Return, s.Class, s.Method, strings.Join(s.Params, ", "))
}

// SignatureOf extracts the matchable signature from an LVM method.
func SignatureOf(m *lvm.Method) Signature {
	cls := ""
	if m.Class != nil {
		cls = m.Class.Name
	}
	return Signature{Class: cls, Method: m.Name, Return: m.Return, Params: m.Params}
}

// When says whether advice runs before or after the join point.
type When uint8

// Advice positions.
const (
	Before When = iota + 1
	After
)

// String implements fmt.Stringer.
func (w When) String() string {
	switch w {
	case Before:
		return "before"
	case After:
		return "after"
	default:
		return fmt.Sprintf("when(%d)", uint8(w))
	}
}

// Body is executed when a woven join point fires. Implementations include
// native Go functions (BodyFunc) and sandboxed LVM bytecode (see
// internal/core). Returning an error aborts the intercepted operation with an
// LVM exception — this is how, e.g., the access-control extension denies a
// call.
type Body interface {
	Exec(ctx *Context) error
}

// BodyFunc adapts a Go function to Body.
type BodyFunc func(ctx *Context) error

// Exec implements Body.
func (f BodyFunc) Exec(ctx *Context) error { return f(ctx) }

// Crosscut selects join points: a kind plus a signature pattern.
type Crosscut struct {
	Kind Kind
	Pat  *Pattern
}

// Cut builds a Crosscut from a pattern source string, panicking on a parse
// error. Use ParsePattern for untrusted input.
func Cut(kind Kind, pattern string) Crosscut {
	p, err := ParsePattern(pattern)
	if err != nil {
		panic(err)
	}
	return Crosscut{Kind: kind, Pat: p}
}

// Advice is one crosscut action of an aspect.
type Advice struct {
	Name string
	When When
	Cut  Crosscut
	Body Body
}

// Aspect is a first-class run-time extension: a named bundle of advice with
// lifecycle hooks. OnShutdown implements the paper's "each extension is
// notified before leaving a proactive space so that it can execute a
// shut-down procedure".
type Aspect struct {
	Name     string
	Priority int // lower runs first among matching advice
	Advices  []Advice

	OnActivate func() error
	OnShutdown func()
}

// Validate reports structural problems: empty name, advice without body or
// pattern.
func (a *Aspect) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("aop: aspect needs a name")
	}
	if len(a.Advices) == 0 {
		return fmt.Errorf("aop: aspect %q has no advice", a.Name)
	}
	for i, adv := range a.Advices {
		if adv.Body == nil {
			return fmt.Errorf("aop: aspect %q advice %d has no body", a.Name, i)
		}
		if adv.Cut.Pat == nil {
			return fmt.Errorf("aop: aspect %q advice %d has no crosscut pattern", a.Name, i)
		}
		if adv.When != Before && adv.When != After {
			return fmt.Errorf("aop: aspect %q advice %d has invalid position", a.Name, i)
		}
		switch adv.Cut.Kind {
		case MethodEntry, MethodExit, FieldGet, FieldSet, ExceptionThrow, ExceptionHandler:
		default:
			return fmt.Errorf("aop: aspect %q advice %d has invalid kind", a.Name, i)
		}
	}
	return nil
}
