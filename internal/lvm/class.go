package lvm

import "fmt"

// Class is a named collection of fields and methods, mirroring the Java
// classes the paper weaves into.
type Class struct {
	Name       string
	Fields     []string
	FieldIndex map[string]int
	Methods    map[string]*Method
}

// NewClass returns an empty class with the given name.
func NewClass(name string) *Class {
	return &Class{
		Name:       name,
		FieldIndex: make(map[string]int),
		Methods:    make(map[string]*Method),
	}
}

// AddField declares a field and returns its slot index. Re-declaring an
// existing field returns the existing index.
func (c *Class) AddField(name string) int {
	if i, ok := c.FieldIndex[name]; ok {
		return i
	}
	i := len(c.Fields)
	c.Fields = append(c.Fields, name)
	c.FieldIndex[name] = i
	return i
}

// AddMethod attaches m to the class, overwriting any previous method with the
// same name.
func (c *Class) AddMethod(m *Method) {
	m.Class = c
	c.Methods[m.Name] = m
}

// New instantiates the class with all fields nil.
func (c *Class) New() *Object {
	return &Object{Class: c, Fields: make([]Value, len(c.Fields))}
}

// MaxLocals bounds the locals one method declares beyond self and params.
// Frames are sized from the count, so the assembler refuses a larger one.
const MaxLocals = 1<<16 - 1

// Method is a single LVM method: a signature, a constant pool, bytecode and
// an exception handler table.
type Method struct {
	Class     *Class
	Name      string
	Params    []string // declared parameter type names (int, str, ...)
	Return    string   // declared return type name, "void" if none
	NumLocals int      // locals beyond self+params
	Consts    []Value
	Code      []Instr
	Handlers  []Handler
}

// Handler is an exception-handler table entry: if an exception is thrown at a
// pc in [Start, End), control transfers to Target with the exception message
// pushed on the stack.
type Handler struct {
	Start, End, Target int
}

// Arity returns the number of declared parameters.
func (m *Method) Arity() int { return len(m.Params) }

// FrameSize returns the number of local slots a frame needs: self, params and
// declared locals.
func (m *Method) FrameSize() int { return 1 + len(m.Params) + m.NumLocals }

// String renders the method's signature, e.g. "int Motor.rotate(int, bool)".
func (m *Method) String() string {
	cls := "?"
	if m.Class != nil {
		cls = m.Class.Name
	}
	params := ""
	for i, p := range m.Params {
		if i > 0 {
			params += ", "
		}
		params += p
	}
	return fmt.Sprintf("%s %s.%s(%s)", m.Return, cls, m.Name, params)
}

// Program is a set of classes forming a deployable LVM application.
type Program struct {
	Classes map[string]*Class
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{Classes: make(map[string]*Class)}
}

// AddClass registers c, overwriting any class with the same name.
func (p *Program) AddClass(c *Class) {
	p.Classes[c.Name] = c
}

// Class returns the named class, or nil.
func (p *Program) Class(name string) *Class {
	return p.Classes[name]
}

// Method resolves "Class.method", or returns nil.
func (p *Program) Method(class, method string) *Method {
	c := p.Classes[class]
	if c == nil {
		return nil
	}
	return c.Methods[method]
}

// EachMethod invokes fn for every method of every class in an unspecified
// order.
func (p *Program) EachMethod(fn func(*Method)) {
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			fn(m)
		}
	}
}
