package analysis

import (
	"slices"
	"sort"

	"repro/internal/lvm"
	"repro/internal/sandbox"
)

// callTargets resolves every OpCall in m to the set of methods it may invoke.
// Where typed verification pinned the receiver to a known class, the call
// devirtualises to exactly that class's method; otherwise the closed world of
// the program (classes, sorted) supplies every method sharing the name.
// Calls in dead code resolve by name too — dead code cannot run, but
// counting it keeps the inferred set an over-approximation even if the
// verifier ever changes. A method without calls gets a nil map.
func callTargets(p *lvm.Program, classes []string, m *lvm.Method, ti *TypeInfo) map[int][]*lvm.Method {
	var out map[int][]*lvm.Method
	for pc, ins := range m.Code {
		if ins.Op != lvm.OpCall {
			continue
		}
		if out == nil {
			out = make(map[int][]*lvm.Method)
		}
		if recv, ok := ti.ReceiverAt(pc); ok && recv.K == AObj && recv.Class != "" {
			if callee := p.Method(recv.Class, ins.Sym); callee != nil {
				out[pc] = []*lvm.Method{callee}
				continue
			}
		}
		var callees []*lvm.Method
		for _, name := range classes {
			if callee := p.Classes[name].Methods[ins.Sym]; callee != nil {
				callees = append(callees, callee)
			}
		}
		out[pc] = callees
	}
	return out
}

func sortedClassNames(p *lvm.Program) []string {
	names := make([]string, 0, len(p.Classes))
	for name := range p.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// reachableMethods walks the call graph from mi's method and returns every
// method that may execute, mi's own included. The walk runs once per method.
func (a *analyzer) reachableMethods(mi *methodInfo) []*lvm.Method {
	if mi.callees != nil {
		return mi.callees
	}
	seen := map[*lvm.Method]bool{mi.m: true}
	out := []*lvm.Method{mi.m}
	for next := 0; next < len(out); next++ {
		for _, callees := range a.info[out[next]].targets {
			for _, callee := range callees {
				if !seen[callee] {
					seen[callee] = true
					out = append(out, callee)
				}
			}
		}
	}
	mi.callees = out
	return out
}

// InferCaps computes the host calls and sandbox capabilities reachable from
// entry, transitively through the call graph. The capability mapping is the
// sandbox's own (sandbox.CapabilityOf), so whatever this returns is exactly
// what the run-time gate would demand.
func (a *analyzer) InferCaps(entry *methodInfo) (hostCalls []string, caps []sandbox.Capability) {
	for _, m := range a.reachableMethods(entry) {
		for _, ins := range m.Code {
			if ins.Op == lvm.OpHostCall {
				hostCalls = append(hostCalls, ins.Sym)
			}
		}
	}
	slices.Sort(hostCalls)
	hostCalls = slices.Compact(hostCalls)
	for _, fn := range hostCalls {
		caps = append(caps, sandbox.CapabilityOf(fn))
	}
	slices.Sort(caps)
	return hostCalls, slices.Compact(caps)
}
