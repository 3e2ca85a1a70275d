// Package sandbox is the PROSE aspect sandbox: foreign extension code is
// isolated from the application and can only reach the outside world through
// host functions gated by capabilities. A receiver node grants each incoming
// extension a capability set derived from its local policy; anything else is
// a security violation that aborts the extension (and is not catchable by the
// extension's own exception handlers).
package sandbox

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/lvm"
)

// Capability names one guarded resource class. Host functions are namespaced
// "<capability>.<operation>", e.g. "store.put" or "net.post".
type Capability string

// Capabilities used by the built-in extensions.
const (
	CapStore   Capability = "store"   // persistent storage at the node
	CapNet     Capability = "net"     // sending data off-node (e.g. to a base)
	CapDevice  Capability = "device"  // touching robot hardware
	CapSession Capability = "session" // reading session/caller information
	CapClock   Capability = "clock"   // reading the local clock
	CapLog     Capability = "log"     // emitting local diagnostics
	CapCtx     Capability = "ctx"     // join-point context access (always safe)
)

// Perms is an immutable capability set.
type Perms struct {
	set map[Capability]struct{}
}

// NewPerms builds a permission set.
func NewPerms(caps ...Capability) Perms {
	s := make(map[Capability]struct{}, len(caps))
	for _, c := range caps {
		s[c] = struct{}{}
	}
	return Perms{set: s}
}

// Allows reports whether c is granted.
func (p Perms) Allows(c Capability) bool {
	_, ok := p.set[c]
	return ok
}

// List returns the granted capabilities in sorted order.
func (p Perms) List() []Capability {
	out := make([]Capability, 0, len(p.set))
	for c := range p.set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Diff returns the capabilities in want that p does not grant, sorted. An
// empty result means p covers want. Admission uses this to name exactly which
// inferred capabilities a policy refused.
func (p Perms) Diff(want []Capability) []Capability {
	var missing []Capability
	for _, c := range want {
		if !p.Allows(c) {
			missing = append(missing, c)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	return missing
}

// String renders the set for diagnostics.
func (p Perms) String() string {
	caps := p.List()
	parts := make([]string, len(caps))
	for i, c := range caps {
		parts[i] = string(c)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Violation is the uncatchable error raised when sandboxed code exceeds its
// capabilities. It deliberately does not unwrap to *lvm.Thrown, so extension
// bytecode cannot swallow it with a handler. Granted records what the policy
// actually allowed, so the error names both sides of the mismatch.
type Violation struct {
	Capability Capability
	Fn         string
	Granted    Perms
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("sandbox: call %q requires capability %q, granted %s", v.Fn, v.Capability, v.Granted)
}

// Policy decides which of an extension's requested capabilities a node
// grants, given the (verified) signer name.
type Policy interface {
	Grant(signer string, requested []Capability) (Perms, error)
}

// PolicyFunc adapts a function to Policy.
type PolicyFunc func(signer string, requested []Capability) (Perms, error)

// Grant implements Policy.
func (f PolicyFunc) Grant(signer string, requested []Capability) (Perms, error) {
	return f(signer, requested)
}

// AllowAll grants every requested capability.
func AllowAll() Policy {
	return PolicyFunc(func(_ string, requested []Capability) (Perms, error) {
		return NewPerms(requested...), nil
	})
}

// Allowlist grants only requested capabilities that appear in the list; a
// request outside the list is an error (the extension is rejected rather
// than silently degraded).
func Allowlist(caps ...Capability) Policy {
	allowed := NewPerms(caps...)
	return PolicyFunc(func(_ string, requested []Capability) (Perms, error) {
		if missing := allowed.Diff(requested); len(missing) > 0 {
			return Perms{}, fmt.Errorf("sandbox: capabilities %v not permitted by node policy (allows %s)", missing, allowed)
		}
		return NewPerms(requested...), nil
	})
}

// Host gates an underlying lvm.Host by capability, counting calls for
// auditing. Functions proven safe at admission time (Prove) are dispatched
// straight to the inner host, skipping the capability check, the audit
// mutex, and the call counter.
type Host struct {
	inner  lvm.Host
	perms  Perms
	proven map[string]bool

	mu    sync.Mutex
	calls map[string]int
}

// NewHost wraps inner with the given permission set. CapCtx is always
// granted: reading the current join point is harmless and every advice needs
// it.
func NewHost(inner lvm.Host, perms Perms) *Host {
	withCtx := append(perms.List(), CapCtx, CapLog)
	return &Host{inner: inner, perms: NewPerms(withCtx...), calls: make(map[string]int)}
}

// Perms returns the effective permission set.
func (h *Host) Perms() Perms { return h.perms }

// HostCall implements lvm.Host with a capability check on the function's
// namespace.
func (h *Host) HostCall(name string, args []lvm.Value) (lvm.Value, error) {
	cap := CapabilityOf(name)
	if !h.perms.Allows(cap) {
		return lvm.Nil(), &Violation{Capability: cap, Fn: name, Granted: h.perms}
	}
	h.mu.Lock()
	h.calls[name]++
	h.mu.Unlock()
	return h.inner.HostCall(name, args)
}

// Prove marks host functions as statically verified: admission analysis has
// already shown each fn's capability is granted, so the per-dispatch check is
// dead. Functions whose capability the permission set does NOT allow are
// silently ignored — Prove can never widen what the host permits, only skip
// re-checking what it would permit anyway. Call it once, after admission and
// before execution; it is not safe concurrently with dispatch.
func (h *Host) Prove(fns ...string) {
	for _, fn := range fns {
		if !h.perms.Allows(CapabilityOf(fn)) {
			continue
		}
		if h.proven == nil {
			h.proven = make(map[string]bool, len(fns))
		}
		h.proven[fn] = true
	}
}

// Prechecked implements lvm.PrecheckedHost: a proven function resolves once
// to its function on the inner host, which the caller then dispatches
// directly. Note the fast path also skips the audit call counter — CallCount
// only observes checked dispatches.
func (h *Host) Prechecked(fn string) lvm.HostFunc {
	if !h.proven[fn] {
		return nil
	}
	if m, ok := h.inner.(lvm.HostMap); ok {
		if f := m[fn]; f != nil {
			return f
		}
	}
	inner := h.inner
	return func(args []lvm.Value) (lvm.Value, error) { return inner.HostCall(fn, args) }
}

// CallCount reports how many times the named host function was invoked.
//
//lint:allow shipped (test seam: sandbox tests count host calls an extension made)
func (h *Host) CallCount(name string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls[name]
}

// CapabilityOf maps a host-function name onto the capability guarding it: the
// namespace before the first '.', or the whole name if it has none. Static
// capability inference uses the same mapping, so admission-time and run-time
// decisions cannot disagree.
func CapabilityOf(fn string) Capability {
	if dot := strings.IndexByte(fn, '.'); dot > 0 {
		return Capability(fn[:dot])
	}
	return Capability(fn)
}
