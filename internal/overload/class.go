package overload

// Class is a request's priority band. When the server is saturated, admission
// runs strictly by class: every queued keepalive is granted before any queued
// mutation, and every mutation before any read. The ordering encodes what the
// platform can least afford to lose — a missed renewal expires a lease and
// degrades a node (minutes of repair), a deferred mutation merely delays an
// adaptation, and a shed read costs one dashboard refresh.
type Class int

// Priority bands, highest first.
const (
	// ClassKeepalive is lease-keeping traffic: lookup registration and watch
	// renewals. Shedding it converts congestion into expiries.
	ClassKeepalive Class = iota
	// ClassMutation is state-changing traffic: posts, service notices,
	// registrations and watches.
	ClassMutation
	// ClassRead is observational traffic: lookups, status, metrics, analyses.
	ClassRead

	numClasses = 3
)

// String renders the class for metric labels and span tags.
func (c Class) String() string {
	switch c {
	case ClassKeepalive:
		return "keepalive"
	case ClassMutation:
		return "mutation"
	default:
		return "read"
	}
}

// defaultClasses maps the RPC surface the overload front serves — the base
// station's lookup service, base and ops methods — onto the bands. The
// method names are string literals rather than the core/registry constants
// so this package sits below both (core imports overload for the fleet view).
var defaultClasses = map[string]Class{
	// Keepalive: the lookup leases that nodes and the base's own watch renew.
	"lookup.renew":      ClassKeepalive,
	"lookup.renewWatch": ClassKeepalive,

	// Mutations: nodes' posts and service notices, and lookup registry
	// writes.
	"base.post":         ClassMutation,
	"base.onservice":    ClassMutation,
	"lookup.register":   ClassMutation,
	"lookup.deregister": ClassMutation,
	"lookup.watch":      ClassMutation,

	// Reads: lookups and the operator documents.
	"ops":         ClassRead,
	"lookup.find": ClassRead,
}

// Classify maps a method name to its priority class. Unknown methods land in
// the middle band: safer than top (an unclassified method cannot starve
// keepalives) and safer than bottom (it is not silently first to shed).
func Classify(method string) Class {
	if c, ok := defaultClasses[method]; ok {
		return c
	}
	return ClassMutation
}
