package analysis

import (
	"fmt"
	"sort"

	"repro/internal/lvm"
	"repro/internal/sandbox"
)

// MethodReport is the admission verdict for one method: the host functions
// and capabilities reachable from it (transitively through calls), the
// source→sink information flows its data can take, its static fuel bound,
// and the pcs of dead instructions.
type MethodReport struct {
	Method      string // "Class.method"
	HostCalls   []string
	Caps        []sandbox.Capability
	Flows       []Flow
	Fuel        Fuel
	Unreachable []int
}

// Report is the result of analysing a whole program. Methods is keyed by
// "Class.method"; Warnings carries human-readable non-fatal findings
// (unreachable code) in deterministic order.
type Report struct {
	Methods  map[string]*MethodReport
	Warnings []string
}

// Method returns the report for "Class.method", or nil.
func (r *Report) Method(class, method string) *MethodReport {
	return r.Methods[class+"."+method]
}

// analyzer holds the per-program artifacts shared by the client analyses, in
// one record per method: its typed-verification result, devirtualised call
// targets, cost memo and taint summary.
type analyzer struct {
	methods []methodInfo // every method, by class then method name
	info    map[*lvm.Method]*methodInfo
	byName  map[string]*methodInfo
	taintW  *taintWorld
}

// methodInfo is what the analyzer derives for one method of the program.
type methodInfo struct {
	name    string // "Class.method"
	m       *lvm.Method
	types   *TypeInfo
	targets map[int][]*lvm.Method // call pc -> the methods it may invoke
	reach   []bool                // CFG.Reachable, computed on first use
	callees []*lvm.Method         // methods reachable through calls, on first use
	fuel    Fuel
	fuelAt  fuelMark
	taint   taintSummary
}

// newAnalyzer type-checks every method of p (rejecting the program on the
// first failure) and resolves call targets.
func newAnalyzer(p *lvm.Program) (*analyzer, error) {
	classes := sortedClassNames(p)
	total := 0
	for _, c := range p.Classes {
		total += len(c.Methods)
	}
	a := &analyzer{
		methods: make([]methodInfo, 0, total),
		info:    make(map[*lvm.Method]*methodInfo, total),
		byName:  make(map[string]*methodInfo, total),
	}
	for _, cls := range classes {
		c := p.Classes[cls]
		for _, name := range sortedMethodNames(c) {
			m := c.Methods[name]
			ti, err := TypeCheck(p, m)
			if err != nil {
				return nil, fmt.Errorf("analysis: %s: %w", m, err)
			}
			a.methods = append(a.methods, methodInfo{name: cls + "." + name, m: m, types: ti})
		}
	}
	for i := range a.methods {
		mi := &a.methods[i]
		mi.targets = callTargets(p, classes, mi.m, mi.types)
		a.info[mi.m] = mi
		a.byName[mi.name] = mi
	}
	return a, nil
}

// reachablePCs caches CFG.Reachable per method.
func (mi *methodInfo) reachablePCs() []bool {
	if mi.reach == nil {
		mi.reach = mi.types.CFG.Reachable()
	}
	return mi.reach
}

func sortedMethodNames(c *lvm.Class) []string {
	names := make([]string, 0, len(c.Methods))
	for name := range c.Methods {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// AnalyzeProgram runs the full admission pipeline over p: CFG construction
// and typed stack verification for every method (an error anywhere rejects
// the program), then capability inference and bounded-cost analysis per
// method. It is strictly stronger than lvm.VerifyProgram: anything it accepts
// also passes the depth-only verifier.
func AnalyzeProgram(p *lvm.Program) (*Report, error) {
	a, err := newAnalyzer(p)
	if err != nil {
		return nil, err
	}
	rep := &Report{Methods: make(map[string]*MethodReport, len(a.methods))}
	mrs := make([]MethodReport, len(a.methods))
	for i := range a.methods {
		mi := &a.methods[i]
		mr := &mrs[i]
		mr.Method = mi.name
		mr.HostCalls, mr.Caps = a.InferCaps(mi)
		if mr.Flows, err = a.Flows(mi); err != nil {
			return nil, err
		}
		mr.Fuel = a.fuelOf(mi)
		mr.Unreachable = unreachablePCs(mi.reachablePCs())
		for _, pc := range mr.Unreachable {
			rep.Warnings = append(rep.Warnings,
				fmt.Sprintf("%s: pc %d unreachable (%s)", mr.Method, pc, mi.m.Code[pc].Op))
		}
		rep.Methods[mr.Method] = mr
	}
	return rep, nil
}
