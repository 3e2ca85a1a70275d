package lvm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Assemble parses LVM assembler source into a Program. The syntax is
// line-oriented:
//
//	class Motor
//	  field speed
//	  method void rotate(int deg)
//	    local tmp
//	    push 0
//	    store tmp
//	  loop:
//	    load tmp
//	    load deg
//	    lt
//	    jmpf done
//	    ...
//	    jmp loop
//	  done:
//	    retv
//	  end
//	end
//
// Comments start with ';' or '#'. Labels end with ':'. Parameters and named
// locals can be referenced by name in load/store. Exception handlers are
// declared with "handler Lstart Lend Lcatch". Field access on self uses
// "getself name" / "setself name"; on arbitrary objects "getfield Class.field"
// / "setfield Class.field". Constants are pushed with "push" followed by an
// integer, a double-quoted string, true, false or nil.
func Assemble(src string) (*Program, error) {
	lines := splitLines(src)

	prog := NewProgram()
	// Pass 1: declare classes, fields and method headers so that forward
	// references (new, getfield) resolve, and count each method's body lines
	// so pass 2 can size its code once.
	var cur *Class
	var hdr *srcLine // the open method's header line
	for i := range lines {
		ln := &lines[i]
		switch {
		case ln.nf >= 2 && ln.f0 == "class" && hdr == nil:
			cur = NewClass(ln.f1)
			prog.AddClass(cur)
		case ln.nf >= 2 && ln.f0 == "field" && hdr == nil:
			if cur == nil {
				return nil, ln.errf("field outside class")
			}
			cur.AddField(ln.f1)
		case ln.f0 == "method":
			if cur == nil {
				return nil, ln.errf("method outside class")
			}
			m, err := parseMethodHeader(ln.text)
			if err != nil {
				return nil, ln.errf("%v", err)
			}
			cur.AddMethod(m)
			ln.method = m
			hdr = ln
		case ln.nf == 1 && ln.f0 == "end":
			if hdr != nil {
				hdr = nil
			} else {
				cur = nil
			}
		default:
			if hdr != nil {
				hdr.body++
				if ln.f0 == "push" {
					hdr.pushes++
				}
			}
		}
	}

	// Pass 2: assemble method bodies.
	cur = nil
	var asm *methodAsm // the method being assembled, nil between methods
	ma := methodAsm{prog: prog, tok: make([]string, 0, 8)}
	for i := range lines {
		ln := &lines[i]
		switch {
		case ln.nf >= 2 && ln.f0 == "class" && asm == nil:
			cur = prog.Class(ln.f1)
		case ln.nf >= 2 && ln.f0 == "field" && asm == nil:
			// already handled
		case ln.f0 == "method" && asm == nil:
			// The class's method of that name: a later duplicate wins.
			m := cur.Methods[ln.method.Name]
			if m == nil {
				// A later declaration of the class replaced the one
				// that declared this method.
				return nil, ln.errf("class %s redeclared after method %s", cur.Name, ln.method.Name)
			}
			asm = &ma
			asm.begin(cur, m, ln)
		case ln.nf == 1 && ln.f0 == "end":
			if asm != nil {
				if err := asm.finish(); err != nil {
					return nil, ln.errf("%v", err)
				}
				asm = nil
			} else {
				cur = nil
			}
		default:
			if asm == nil {
				return nil, ln.errf("instruction outside method: %s", ln.text)
			}
			if err := asm.line(ln.text); err != nil {
				return nil, ln.errf("%v", err)
			}
		}
	}
	if asm != nil || cur != nil {
		return nil, fmt.Errorf("lvm asm: missing end")
	}
	return prog, nil
}

// MustAssemble is Assemble that panics on error; for tests and fixed fixtures.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

// srcLine is one non-blank source line, comment stripped and trimmed. f0
// and f1 are its first two fields as strings.Fields splits them, and nf is
// its field count, capped at three: enough for both passes to recognise the
// class, field, method and end directives without splitting the line again.
type srcLine struct {
	no     int
	text   string
	f0, f1 string
	nf     int
	method *Method // method lines: the method pass 1 declared
	body   int     // method lines: lines up to the method's end
	pushes int     // method lines: push lines up to the method's end
}

func (l srcLine) errf(format string, args ...any) error {
	return fmt.Errorf("lvm asm line %d: %s", l.no, fmt.Sprintf(format, args...))
}

// splitLines cuts src into its non-blank lines. Every string it returns is a
// substring of src.
func splitLines(src string) []srcLine {
	out := make([]srcLine, 0, strings.Count(src, "\n")+1)
	for no, more := 1, true; more; no++ {
		var text string
		text, src, more = strings.Cut(src, "\n")
		// Strip comments, respecting string literals.
		inStr := false
		for j := 0; j < len(text); j++ {
			c := text[j]
			if c == '"' {
				inStr = !inStr
			}
			if !inStr && (c == ';' || c == '#') {
				text = text[:j]
				break
			}
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		f0, f1, nf := headFields(text)
		out = append(out, srcLine{no: no, text: text, f0: f0, f1: f1, nf: nf})
	}
	return out
}

// headFields returns the first two fields of s as strings.Fields splits it
// (around Unicode white space) and the number of fields, counting at most
// three.
func headFields(s string) (f0, f1 string, n int) {
	start := -1
	for i := 0; i < len(s); {
		space, w := asciiSpace[s[i]], 1
		if s[i] >= utf8.RuneSelf {
			var r rune
			r, w = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				if n == 0 {
					f0 = s[start:i]
				} else {
					f1 = s[start:i]
				}
				n++
				start = -1
				if n == 3 {
					return f0, f1, n
				}
			}
		} else if start < 0 {
			if n == 2 {
				return f0, f1, 3
			}
			start = i
		}
		i += w
	}
	if start >= 0 {
		if n == 0 {
			f0 = s[start:]
		} else {
			f1 = s[start:]
		}
		n++
	}
	return f0, f1, n
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as space.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parseMethodHeader parses "method RET NAME(TYPE [name], ...)".
func parseMethodHeader(line string) (*Method, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "method"))
	open := strings.IndexByte(rest, '(')
	closeIdx := strings.LastIndexByte(rest, ')')
	if open < 0 || closeIdx < open {
		return nil, fmt.Errorf("bad method header %q", line)
	}
	ret, name, n := headFields(rest[:open])
	if n != 2 {
		return nil, fmt.Errorf("method header needs return type and name: %q", line)
	}
	m := &Method{Name: name, Return: ret}
	params := strings.TrimSpace(rest[open+1 : closeIdx])
	if params != "" {
		m.Params = make([]string, 0, strings.Count(params, ",")+1)
		for more := true; more; {
			var p string
			p, params, more = strings.Cut(params, ",")
			typ, _, n := headFields(p)
			if n == 0 || n > 2 {
				return nil, fmt.Errorf("bad parameter %q", p)
			}
			m.Params = append(m.Params, typ)
		}
	}
	return m, nil
}

// methodAsm assembles one method body at a time; Assemble reuses one for
// every method of a program.
type methodAsm struct {
	prog       *Program
	cls        *Class
	m          *Method
	slots      map[string]int // named locals and params
	labels     map[string]int
	fixups     []fixup // jump targets to resolve
	handlerFix []handlerFixup
	tok        []string // the current line's operand fields
}

type fixup struct {
	pc    int
	label string
}

type handlerFixup struct {
	start, end, target string
}

// begin starts assembling m, declared on the header line hdr: it binds self
// and the named parameters to their slots and sizes m's code for the body.
func (a *methodAsm) begin(cls *Class, m *Method, hdr *srcLine) {
	a.cls, a.m = cls, m
	if a.slots == nil {
		a.slots = make(map[string]int)
		a.labels = make(map[string]int)
	}
	clear(a.slots)
	clear(a.labels)
	a.fixups = a.fixups[:0]
	a.handlerFix = a.handlerFix[:0]
	a.slots["self"] = 0
	if m.Code == nil {
		m.Code = make([]Instr, 0, hdr.body+1) // +1: the implicit return
		m.Consts = make([]Value, 0, hdr.pushes)
	}
	// Named parameters take slots 1..n in declaration order.
	open := strings.IndexByte(hdr.text, '(')
	closeIdx := strings.LastIndexByte(hdr.text, ')')
	params := strings.TrimSpace(hdr.text[open+1 : closeIdx])
	for i, more := 0, params != ""; more; i++ {
		var p string
		p, params, more = strings.Cut(params, ",")
		if _, name, n := headFields(p); n == 2 {
			a.slots[name] = i + 1
		}
	}
}

func (a *methodAsm) emit(i Instr) { a.m.Code = append(a.m.Code, i) }

func (a *methodAsm) constIdx(v Value) int {
	for i, c := range a.m.Consts {
		if c.K == v.K && c.Equal(v) {
			return i
		}
	}
	a.m.Consts = append(a.m.Consts, v)
	return len(a.m.Consts) - 1
}

func (a *methodAsm) slot(name string) (int, error) {
	if i, ok := number(name); ok {
		return i, nil
	}
	if s, ok := a.slots[name]; ok {
		return s, nil
	}
	return 0, fmt.Errorf("unknown local %q", name)
}

func (a *methodAsm) fieldSlot(spec string) (int, error) {
	if i, ok := number(spec); ok {
		return i, nil
	}
	// Class.field form.
	if dot := strings.IndexByte(spec, '.'); dot > 0 {
		cls := a.prog.Class(spec[:dot])
		if cls == nil {
			return 0, fmt.Errorf("unknown class %q", spec[:dot])
		}
		if idx, ok := cls.FieldIndex[spec[dot+1:]]; ok {
			return idx, nil
		}
		return 0, fmt.Errorf("unknown field %q", spec)
	}
	// Bare name: resolve against the enclosing class.
	if idx, ok := a.cls.FieldIndex[spec]; ok {
		return idx, nil
	}
	return 0, fmt.Errorf("unknown field %q in class %s", spec, a.cls.Name)
}

func (a *methodAsm) line(text string) error {
	if strings.HasSuffix(text, ":") && !strings.ContainsAny(text, " \t") {
		label := strings.TrimSuffix(text, ":")
		a.labels[label] = len(a.m.Code)
		return nil
	}
	a.tok = fieldsRespectingStrings(a.tok[:0], text)
	f := a.tok
	op := f[0]
	switch op {
	case "local":
		if len(f) != 2 {
			return fmt.Errorf("local needs a name")
		}
		if a.m.NumLocals == MaxLocals {
			return fmt.Errorf("local %s: a method declares 0..%d locals", f[1], MaxLocals)
		}
		a.slots[f[1]] = 1 + len(a.m.Params) + a.m.NumLocals
		a.m.NumLocals++
		return nil
	case "locals":
		if len(f) != 2 {
			return fmt.Errorf("locals needs a count")
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return err
		}
		if n < 0 || n > MaxLocals-a.m.NumLocals {
			return fmt.Errorf("locals %d: a method declares 0..%d locals", n, MaxLocals)
		}
		a.m.NumLocals += n
		return nil
	case "param":
		// "param i name" binds a name to parameter slot i+1.
		if len(f) != 3 {
			return fmt.Errorf("param needs index and name")
		}
		i, err := strconv.Atoi(f[1])
		if err != nil {
			return err
		}
		a.slots[f[2]] = i + 1
		return nil
	case "params":
		// "params a b c" binds names to parameter slots 1..n.
		for i, n := range f[1:] {
			a.slots[n] = i + 1
		}
		return nil
	case "handler":
		if len(f) != 4 {
			return fmt.Errorf("handler needs start end target labels")
		}
		a.handlerFix = append(a.handlerFix, handlerFixup{f[1], f[2], f[3]})
		return nil
	case "push":
		if len(f) < 2 {
			return fmt.Errorf("push needs a literal")
		}
		v, err := parseLiteral(strings.TrimSpace(text[len("push"):]))
		if err != nil {
			return err
		}
		a.emit(Instr{Op: OpConst, A: a.constIdx(v)})
		return nil
	case "load", "store":
		if len(f) != 2 {
			return fmt.Errorf("%s needs a slot", op)
		}
		s, err := a.slot(f[1])
		if err != nil {
			return err
		}
		o := OpLoad
		if op == "store" {
			o = OpStore
		}
		a.emit(Instr{Op: o, A: s})
		return nil
	case "getself", "setself":
		if len(f) != 2 {
			return fmt.Errorf("%s needs a field", op)
		}
		idx, err := a.fieldSlot(f[1])
		if err != nil {
			return err
		}
		o := OpGetSelf
		if op == "setself" {
			o = OpSetSelf
		}
		a.emit(Instr{Op: o, A: idx, Sym: symbolicField(f[1])})
		return nil
	case "getfield", "setfield":
		if len(f) != 2 {
			return fmt.Errorf("%s needs a field", op)
		}
		idx, err := a.fieldSlot(f[1])
		if err != nil {
			return err
		}
		o := OpGetField
		if op == "setfield" {
			o = OpSetField
		}
		a.emit(Instr{Op: o, A: idx, Sym: symbolicField(f[1])})
		return nil
	case "jmp", "jmpf":
		if len(f) != 2 {
			return fmt.Errorf("%s needs a label", op)
		}
		o := OpJump
		if op == "jmpf" {
			o = OpJumpFalse
		}
		a.fixups = append(a.fixups, fixup{pc: len(a.m.Code), label: f[1]})
		a.emit(Instr{Op: o})
		return nil
	case "call":
		if len(f) != 3 {
			return fmt.Errorf("call needs method name and argc")
		}
		n, err := strconv.Atoi(f[2])
		if err != nil {
			return err
		}
		a.emit(Instr{Op: OpCall, Sym: f[1], B: n})
		return nil
	case "hostcall":
		if len(f) != 3 {
			return fmt.Errorf("hostcall needs name and argc")
		}
		n, err := strconv.Atoi(f[2])
		if err != nil {
			return err
		}
		a.emit(Instr{Op: OpHostCall, Sym: f[1], B: n})
		return nil
	case "new":
		if len(f) != 2 {
			return fmt.Errorf("new needs a class name")
		}
		if a.prog.Class(f[1]) == nil {
			return fmt.Errorf("unknown class %q", f[1])
		}
		a.emit(Instr{Op: OpNew, Sym: f[1]})
		return nil
	}
	if o, ok := zeroOperandOps[op]; ok {
		if len(f) != 1 {
			return fmt.Errorf("%s takes no operands", op)
		}
		a.emit(Instr{Op: o})
		return nil
	}
	return fmt.Errorf("unknown instruction %q", op)
}

func (a *methodAsm) finish() error {
	for _, fx := range a.fixups {
		pc, ok := a.labels[fx.label]
		if !ok {
			return fmt.Errorf("undefined label %q", fx.label)
		}
		a.m.Code[fx.pc].A = pc
	}
	for _, h := range a.handlerFix {
		start, ok1 := a.labels[h.start]
		end, ok2 := a.labels[h.end]
		target, ok3 := a.labels[h.target]
		if !ok1 || !ok2 || !ok3 {
			return fmt.Errorf("undefined handler label in %v", h)
		}
		a.m.Handlers = append(a.m.Handlers, Handler{Start: start, End: end, Target: target})
	}
	// Implicit return for straight-line void code.
	if len(a.m.Code) == 0 || !isTerminator(a.m.Code[len(a.m.Code)-1].Op) {
		a.emit(Instr{Op: OpReturnVoid})
	}
	return nil
}

// zeroOperandOps maps the mnemonics of the operand-less instructions.
var zeroOperandOps = map[string]Op{
	"nop": OpNop, "add": OpAdd, "sub": OpSub, "mul": OpMul, "div": OpDiv,
	"mod": OpMod, "neg": OpNeg, "eq": OpEq, "ne": OpNe, "lt": OpLt,
	"le": OpLe, "gt": OpGt, "ge": OpGe, "and": OpAnd, "or": OpOr,
	"not": OpNot, "concat": OpConcat, "len": OpLen, "throw": OpThrow,
	"ret": OpReturn, "retv": OpReturnVoid, "pop": OpPop, "dup": OpDup,
}

func isTerminator(o Op) bool {
	return o == OpReturn || o == OpReturnVoid || o == OpJump || o == OpThrow
}

func parseLiteral(s string) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "nil":
		return Nil(), nil
	case s == "true":
		return Bool(true), nil
	case s == "false":
		return Bool(false), nil
	case len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"':
		unq, err := strconv.Unquote(s)
		if err != nil {
			return Nil(), fmt.Errorf("bad string literal %s: %v", s, err)
		}
		return Str(unq), nil
	default:
		i, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			return Nil(), fmt.Errorf("bad literal %q", s)
		}
		return Int(i), nil
	}
}

// symbolicField preserves the textual field reference ("speed" or
// "Motor.speed") on the instruction so that the JIT can register named field
// join points; purely numeric slot references carry no symbol.
func symbolicField(spec string) string {
	if _, ok := number(spec); ok {
		return ""
	}
	return spec
}

// number is strconv.Atoi for operands that may also be names: a name cannot
// start with a sign or a digit, so it is turned down without Atoi building
// an error for it.
func number(s string) (int, bool) {
	if s == "" || (s[0] != '+' && s[0] != '-' && (s[0] < '0' || s[0] > '9')) {
		return 0, false
	}
	i, err := strconv.Atoi(s)
	return i, err == nil
}

// fieldsRespectingStrings appends to out the blank- and tab-separated fields
// of s, keeping double-quoted literals whole. The fields are substrings of s.
func fieldsRespectingStrings(out []string, s string) []string {
	start := -1
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' {
			inStr = !inStr
		}
		if !inStr && (c == ' ' || c == '\t') {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}
