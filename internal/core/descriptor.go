// Package core implements MIDAS, the extension-management layer of the
// platform (§3.2): extension bases discover newly arrived nodes and push
// signed extensions to them; extension receivers (the adaptation service each
// mobile node carries) verify, sandbox and weave the extensions, hold them
// under leases, and autonomously withdraw them when the base stops renewing —
// making every adaptation local in time and space.
package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/aop"
	"repro/internal/sandbox"
	"repro/internal/sign"
)

// AdviceSpec is the wire form of one crosscut action. Exactly one of Builtin
// or Code must be set: Builtin names an advice factory compiled into the
// receiving node (configured infrastructure extensions, like the paper's
// access-control policies), Code carries mobile LVM bytecode executed in the
// aspect sandbox (functionality the node did not carry).
type AdviceSpec struct {
	Name    string
	Kind    string // "call-before", "call-after", "field-get", "field-set", "throw", "handle"
	Pattern string // crosscut signature pattern

	Builtin string
	Config  map[string]string

	Code string // LVM assembly; see CompileAdvice for the required shape
}

// Advice kinds accepted in AdviceSpec.Kind.
const (
	KindCallBefore = "call-before"
	KindCallAfter  = "call-after"
	KindFieldGet   = "field-get"
	KindFieldSet   = "field-set"
	KindThrow      = "throw"
	KindHandle     = "handle"
)

// adviceKind maps wire kinds onto the aop model.
func adviceKind(kind string) (aop.When, aop.Kind, error) {
	switch kind {
	case KindCallBefore:
		return aop.Before, aop.MethodEntry, nil
	case KindCallAfter:
		return aop.After, aop.MethodExit, nil
	case KindFieldGet:
		return aop.After, aop.FieldGet, nil
	case KindFieldSet:
		return aop.Before, aop.FieldSet, nil
	case KindThrow:
		return aop.Before, aop.ExceptionThrow, nil
	case KindHandle:
		return aop.Before, aop.ExceptionHandler, nil
	default:
		return 0, 0, fmt.Errorf("core: unknown advice kind %q", kind)
	}
}

// Extension is the unit MIDAS distributes: a named, versioned bundle of
// advice plus the capabilities it needs and the implicit extensions it
// depends on.
type Extension struct {
	ID       string // unique per extension instance
	Name     string // aspect name at the receiver; one active version per name
	Version  int
	Priority int // weaving priority (lower runs first)

	Advices  []AdviceSpec
	Requires []string // implicit extensions (builtin bundle names) to auto-install
	Caps     []string // requested sandbox capabilities
	// Flows declares the information flows the extension's advice is
	// permitted to exercise, as "source->sink" capability rules (e.g.
	// "store->net"). Admission infers the actual flows from the bytecode and
	// refuses any inferred flow not declared here — holding both the store
	// and net capabilities does not imply permission to move data from one
	// to the other.
	Flows []string
	Meta  map[string]string
}

// Validate checks structural well-formedness before signing or installing.
func (e *Extension) Validate() error {
	if e.ID == "" || e.Name == "" {
		return fmt.Errorf("core: extension needs ID and Name")
	}
	if len(e.Advices) == 0 {
		return fmt.Errorf("core: extension %q has no advice", e.Name)
	}
	for i, a := range e.Advices {
		if _, _, err := adviceKind(a.Kind); err != nil {
			return fmt.Errorf("core: extension %q advice %d: %w", e.Name, i, err)
		}
		if a.Pattern == "" {
			return fmt.Errorf("core: extension %q advice %d: empty pattern", e.Name, i)
		}
		if _, err := aop.ParsePattern(a.Pattern); err != nil {
			return fmt.Errorf("core: extension %q advice %d: %w", e.Name, i, err)
		}
		hasBuiltin := a.Builtin != ""
		hasCode := a.Code != ""
		if hasBuiltin == hasCode {
			return fmt.Errorf("core: extension %q advice %d: exactly one of Builtin or Code required", e.Name, i)
		}
	}
	for _, f := range e.Flows {
		if !validFlowRule(f) {
			return fmt.Errorf("core: extension %q: malformed flow rule %q (want \"source->sink\")", e.Name, f)
		}
	}
	return nil
}

// validFlowRule checks the "source->sink" shape with non-empty capability
// names on both sides.
func validFlowRule(rule string) bool {
	src, sink, ok := strings.Cut(rule, "->")
	return ok && src != "" && sink != "" &&
		!strings.Contains(src, ">") && !strings.Contains(sink, ">")
}

// Capabilities converts the requested capability names.
func (e *Extension) Capabilities() []sandbox.Capability {
	out := make([]sandbox.Capability, len(e.Caps))
	for i, c := range e.Caps {
		out[i] = sandbox.Capability(c)
	}
	return out
}

// Canonical returns the deterministic byte encoding that signatures cover
// (JSON: map keys are sorted, field order is fixed). Empty maps and slices
// encode like nil ones, as null: the wire codec decodes both as nil, so a
// receiver re-deriving the bytes from a decoded extension gets the signer's
// bytes. Extensions whose maps and slices are nil or non-empty encode exactly
// as plain JSON does.
func (e *Extension) Canonical() ([]byte, error) {
	c := *e
	c.Advices = nil
	for _, a := range e.Advices {
		a.Config = nilIfEmptyMap(a.Config)
		c.Advices = append(c.Advices, a)
	}
	c.Requires = nilIfEmpty(c.Requires)
	c.Caps = nilIfEmpty(c.Caps)
	c.Flows = nilIfEmpty(c.Flows)
	c.Meta = nilIfEmptyMap(c.Meta)
	b, err := json.Marshal(&c)
	if err != nil {
		return nil, fmt.Errorf("core: canonical encoding: %w", err)
	}
	return b, nil
}

func nilIfEmpty[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return s
}

func nilIfEmptyMap(m map[string]string) map[string]string {
	if len(m) == 0 {
		return nil
	}
	return m
}

// SignedExtension is an extension plus its originator's signature over the
// canonical encoding.
type SignedExtension struct {
	Ext Extension
	Sig sign.Signature
}

// Sign produces a SignedExtension using signer.
func Sign(signer *sign.Signer, ext Extension) (SignedExtension, error) {
	if err := ext.Validate(); err != nil {
		return SignedExtension{}, err
	}
	payload, err := ext.Canonical()
	if err != nil {
		return SignedExtension{}, err
	}
	return SignedExtension{Ext: ext, Sig: signer.Sign(payload)}, nil
}

// Verify checks the signature against trust.
func (s *SignedExtension) Verify(trust *sign.TrustStore) error {
	payload, err := s.Ext.Canonical()
	if err != nil {
		return err
	}
	return trust.Verify(payload, s.Sig)
}
