package aop

import (
	"fmt"
	"strings"
)

// Pattern is a compiled crosscut signature pattern in the style of the
// paper's example
//
//	before methods-with-signature 'void *.send*(byte[] x, ..)' do ...
//
// The textual forms accepted by ParsePattern are:
//
//	[ret] class.method(param, param, ..)   — method pattern
//	class.field                            — field pattern (no parentheses)
//
// Each component may contain '*' wildcards matching any (possibly empty)
// substring. A parameter list may end with '..' (the paper's REST marker),
// which matches any remaining parameters; the bare list '(..)' matches any
// parameter list. A method pattern without an explicit return type matches
// any return type.
type Pattern struct {
	Src    string
	Ret    string   // glob; "*" when unspecified
	Class  string   // glob
	Name   string   // glob: method or field name
	Params []string // globs for leading parameters
	Rest   bool     // ".." — any remaining parameters allowed
	Field  bool     // field pattern (no parameter list)
}

// ParsePattern compiles a textual signature pattern.
func ParsePattern(src string) (*Pattern, error) {
	s := strings.TrimSpace(src)
	if s == "" {
		return nil, fmt.Errorf("aop: empty pattern")
	}
	p := &Pattern{Src: src, Ret: "*"}

	open := strings.IndexByte(s, '(')
	if open < 0 {
		// Field pattern: class.field
		p.Field = true
		cls, name, err := splitQualified(s)
		if err != nil {
			return nil, fmt.Errorf("aop: pattern %q: %v", src, err)
		}
		p.Class, p.Name = cls, name
		return p, nil
	}
	if !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("aop: pattern %q: missing ')'", src)
	}
	head := strings.TrimSpace(s[:open])
	paramSrc := strings.TrimSpace(s[open+1 : len(s)-1])

	// head is "[ret] class.method"
	if sp := strings.LastIndexAny(head, " \t"); sp >= 0 {
		p.Ret = strings.TrimSpace(head[:sp])
		head = strings.TrimSpace(head[sp+1:])
		if p.Ret == "" || strings.ContainsAny(p.Ret, " \t") {
			return nil, fmt.Errorf("aop: pattern %q: bad return type", src)
		}
	}
	cls, name, err := splitQualified(head)
	if err != nil {
		return nil, fmt.Errorf("aop: pattern %q: %v", src, err)
	}
	p.Class, p.Name = cls, name

	if paramSrc != "" {
		for _, part := range strings.Split(paramSrc, ",") {
			part = strings.TrimSpace(part)
			if part == ".." {
				p.Rest = true
				continue
			}
			if p.Rest {
				return nil, fmt.Errorf("aop: pattern %q: '..' must be last", src)
			}
			if part == "" {
				return nil, fmt.Errorf("aop: pattern %q: empty parameter", src)
			}
			// Parameters may carry a binding name ("bytes x"); only the type
			// participates in matching.
			typ := strings.Fields(part)[0]
			p.Params = append(p.Params, typ)
		}
	}
	return p, nil
}

func splitQualified(s string) (class, name string, err error) {
	dot := strings.LastIndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return "", "", fmt.Errorf("want class.name, got %q", s)
	}
	return s[:dot], s[dot+1:], nil
}

// MatchMethod reports whether the pattern selects the given method signature.
// Field patterns never match methods.
func (p *Pattern) MatchMethod(sig Signature) bool {
	if p.Field {
		return false
	}
	if !glob(p.Ret, sig.Return) || !glob(p.Class, sig.Class) || !glob(p.Name, sig.Method) {
		return false
	}
	if len(sig.Params) < len(p.Params) {
		return false
	}
	for i, pp := range p.Params {
		if !glob(pp, sig.Params[i]) {
			return false
		}
	}
	if len(sig.Params) > len(p.Params) && !p.Rest {
		return false
	}
	return true
}

// MatchField reports whether the pattern selects the given class/field pair.
// Method patterns never match fields.
func (p *Pattern) MatchField(class, field string) bool {
	if !p.Field {
		return false
	}
	return glob(p.Class, class) && glob(p.Name, field)
}

// String returns the original pattern source.
func (p *Pattern) String() string { return p.Src }

// glob matches s against a pattern containing '*' wildcards (any substring).
func glob(pattern, s string) bool {
	if pattern == "*" {
		return true
	}
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == s
	}
	// Anchor the first and last fragments, greedily consume the middle ones.
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	last := parts[len(parts)-1]
	if !strings.HasSuffix(s, last) {
		return false
	}
	s = s[:len(s)-len(last)]
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		idx := strings.Index(s, mid)
		if idx < 0 {
			return false
		}
		s = s[idx+len(mid):]
	}
	return true
}
