package aop

import (
	"fmt"

	"repro/internal/lvm"
)

// Context carries the run-time state of a fired join point into advice
// bodies. A single Context flows through the before-advice chain, the
// intercepted operation and the after-advice chain, so advice can
// communicate — the session-management extension, for instance, stores the
// caller identity in Meta where the access-control extension reads it.
type Context struct {
	Kind  Kind
	Sig   Signature
	Field string // field name for field join points

	Self *lvm.Object
	// Args is valid only during the join point's dispatch: at an LVM call
	// it is a view of the caller's operand stack, which the caller reuses
	// once the call returns. Advice that keeps an argument past its Exec
	// copies the Value (a Value is safe to keep; the slice is not).
	Args   []lvm.Value
	Result lvm.Value
	ErrMsg string // exception message at throw/handler join points

	// Meta holds cross-extension session state. It is lazily allocated.
	Meta map[string]lvm.Value

	// attachments carries native Go values between advice executions on the
	// same context (e.g. an open transaction between entry and exit advice).
	attachments map[string]any

	abort error
}

// Abort vetoes the intercepted operation: the call (or field access) is not
// performed and the caller observes an LVM exception with the given message.
// This is the mechanism behind "if the access is denied, the execution is
// ended with an exception" (§4.6).
func (c *Context) Abort(msg string) {
	if c.abort == nil {
		c.abort = &lvm.Thrown{Msg: msg}
	}
}

// Abortf is Abort with formatting.
func (c *Context) Abortf(format string, args ...any) {
	c.Abort(fmt.Sprintf(format, args...))
}

// Aborted returns the pending veto error, or nil.
func (c *Context) Aborted() error { return c.abort }

// Arg returns argument i, or nil when out of range.
func (c *Context) Arg(i int) lvm.Value {
	if i < 0 || i >= len(c.Args) {
		return lvm.Nil()
	}
	return c.Args[i]
}

// SetArg replaces argument i if it exists; advice such as the encryption
// extension uses this to rewrite outgoing payloads in place.
func (c *Context) SetArg(i int, v lvm.Value) {
	if i >= 0 && i < len(c.Args) {
		c.Args[i] = v
	}
}

// SetResult overrides the value the intercepted call returns; only
// meaningful in After advice at MethodExit, or when combined with Abort
// semantics is ignored.
func (c *Context) SetResult(v lvm.Value) { c.Result = v }

// Put stores a cross-extension metadata value.
func (c *Context) Put(key string, v lvm.Value) {
	if c.Meta == nil {
		c.Meta = make(map[string]lvm.Value, 4)
	}
	c.Meta[key] = v
}

// Get loads a cross-extension metadata value.
func (c *Context) Get(key string) (lvm.Value, bool) {
	v, ok := c.Meta[key]
	return v, ok
}

// Attach stores a native Go value on the context (for advice pairs that need
// state across entry and exit, like a transaction handle).
func (c *Context) Attach(key string, v any) {
	if c.attachments == nil {
		c.attachments = make(map[string]any, 2)
	}
	c.attachments[key] = v
}

// Attachment loads a native Go value stored with Attach.
func (c *Context) Attachment(key string) (any, bool) {
	v, ok := c.attachments[key]
	return v, ok
}

// Detach removes an attachment.
func (c *Context) Detach(key string) {
	delete(c.attachments, key)
}

// Reset clears the context for reuse from a pool.
func (c *Context) Reset() {
	*c = Context{}
}
