package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/lvm/analysis"
	"repro/internal/sandbox"
)

// builtinCaps maps builtin advice names to the capabilities their factories
// exercise. Builtins are native Go compiled into the node, so nothing can be
// inferred from bytecode; their authors declare the set here (ext.RegisterAll
// does it for the stock builtins) and admission unions it with what the
// analyzer infers from mobile code.
var (
	builtinCapsMu sync.RWMutex
	builtinCaps   = make(map[string][]sandbox.Capability)
)

// RegisterBuiltinCaps declares the capability set a builtin advice factory
// needs at run time, for admission-time checking.
func RegisterBuiltinCaps(name string, caps ...sandbox.Capability) {
	builtinCapsMu.Lock()
	defer builtinCapsMu.Unlock()
	builtinCaps[name] = append([]sandbox.Capability(nil), caps...)
}

// BuiltinCaps returns the declared capability set of a builtin, and whether
// the builtin has one registered.
func BuiltinCaps(name string) ([]sandbox.Capability, bool) {
	builtinCapsMu.RLock()
	defer builtinCapsMu.RUnlock()
	caps, ok := builtinCaps[name]
	return append([]sandbox.Capability(nil), caps...), ok
}

// AnalysisReport is the stored (and /analyze) form of one extension's admission
// analysis: the exact capability set its advice can exercise, the static fuel
// verdict of its mobile code, and non-fatal findings. Bases keep the report
// of every admitted extension and serve it at /analyze.
type AnalysisReport struct {
	Ext     string
	Version int
	// Caps is the full inferred capability set, always-granted namespaces
	// (ctx, log) included, sorted.
	Caps []string
	// HostCalls lists every host function reachable from mobile advice.
	HostCalls []string
	// Flows lists the inferred information-flow rules ("source->sink",
	// deduplicated, sorted) over all mobile advice.
	Flows []string
	// FuelBounded / FuelSteps summarise the cost analysis over all mobile
	// advice: bounded only if every advice is, Steps is the largest bound.
	FuelBounded bool
	FuelSteps   int
	Warnings    []string
}

// alwaysGranted are the namespaces sandbox.NewHost grants unconditionally;
// admission must not demand they be declared or admitted by policy.
var alwaysGranted = map[sandbox.Capability]bool{
	sandbox.CapCtx: true,
	sandbox.CapLog: true,
}

// Demand returns the capabilities the extension actually needs granted: the
// inferred set minus the always-granted namespaces, sorted.
func (r *AnalysisReport) Demand() []sandbox.Capability {
	var out []sandbox.Capability
	for _, c := range r.Caps {
		if cap := sandbox.Capability(c); !alwaysGranted[cap] {
			out = append(out, cap)
		}
	}
	return out
}

// AnalyzeExtension runs the static admission analysis over every advice of
// ext: mobile code is assembled and fed through the bytecode analyzer
// (typed verification, capability inference, cost bounds — a type-confused or
// fall-off method rejects the extension here), builtin advices contribute
// their registered capability sets. The returned report's Caps is the union,
// which is exactly what the extension can ever demand from a node's sandbox.
func AnalyzeExtension(ext Extension) (*AnalysisReport, error) {
	rep, _, err := analyzeExtension(ext, nil)
	return rep, err
}

// analyzeExtension is AnalyzeExtension that also returns each mobile advice
// as analysed, aligned with ext.Advices (nil for builtins), so a receiver
// compiles the very programs it vetted instead of assembling them again.
// Mobile advice is vetted through vetted, which reuses the analysis of a body
// it has seen before; a nil vetted analyses every body.
func analyzeExtension(ext Extension, vetted *adviceCache) (*AnalysisReport, []*adviceProgram, error) {
	rep := &AnalysisReport{Ext: ext.Name, Version: ext.Version, FuelBounded: true}
	progs := make([]*adviceProgram, len(ext.Advices))
	capSet := make(map[sandbox.Capability]bool)
	callSet := make(map[string]bool)
	flowSet := make(map[string]bool)
	for i := range ext.Advices {
		spec := &ext.Advices[i]
		if spec.Builtin != "" {
			caps, known := BuiltinCaps(spec.Builtin)
			if !known {
				// An unregistered builtin resolves only at the receiving node;
				// fall back to trusting the declared set, but say so.
				rep.Warnings = append(rep.Warnings,
					fmt.Sprintf("advice %q: builtin %q has no registered capability set; trusting declared caps", spec.Name, spec.Builtin))
				for _, c := range ext.Capabilities() {
					capSet[c] = true
				}
				continue
			}
			for _, c := range caps {
				capSet[c] = true
			}
			continue
		}
		a, err := vetted.vet(spec.Code)
		if err != nil {
			return nil, nil, fmt.Errorf("core: extension %q advice %q: %w", ext.Name, spec.Name, err)
		}
		progs[i] = a
		mrep := a.rep
		for _, w := range a.warnings {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("advice %q: %s", spec.Name, w))
		}
		for _, c := range mrep.Caps {
			capSet[c] = true
		}
		for _, fn := range mrep.HostCalls {
			callSet[fn] = true
		}
		for _, rule := range analysis.FlowRules(mrep.Flows) {
			flowSet[rule] = true
		}
		if !mrep.Fuel.Bounded {
			rep.FuelBounded = false
		} else if mrep.Fuel.Steps > rep.FuelSteps {
			rep.FuelSteps = mrep.Fuel.Steps
		}
	}
	for c := range capSet {
		rep.Caps = append(rep.Caps, string(c))
	}
	sort.Strings(rep.Caps)
	for fn := range callSet {
		rep.HostCalls = append(rep.HostCalls, fn)
	}
	sort.Strings(rep.HostCalls)
	for rule := range flowSet {
		rep.Flows = append(rep.Flows, rule)
	}
	sort.Strings(rep.Flows)
	if !rep.FuelBounded {
		rep.FuelSteps = 0
	}
	return rep, progs, nil
}

// FlowError reports an information flow refused at admission: either the
// extension's bytecode exercises a flow it does not declare, or a declared
// flow falls outside the base operator's allowlist. It is a distinct type so
// callers (base metrics, tests) can discriminate flow refusals from
// capability refusals with errors.As.
type FlowError struct {
	Ext  string
	Rule string // the refused "source->sink" rule
	// Undeclared is true when the bytecode exercises a flow absent from the
	// descriptor; false when a declared flow is refused by the allowlist.
	Undeclared bool
}

// Error implements error.
func (e *FlowError) Error() string {
	if e.Undeclared {
		return fmt.Sprintf("core: extension %q exercises undeclared information flow %s", e.Ext, e.Rule)
	}
	return fmt.Sprintf("core: extension %q flow %s refused by admission flow policy", e.Ext, e.Rule)
}

// CheckFlows enforces the information-flow half of admission: every flow the
// analysis inferred must be declared in ext.Flows, and — when allow is
// non-nil — every inferred flow must also appear in the allowlist. An empty
// non-nil allowlist therefore refuses every extension with any inferred
// flow. Declared-but-unexercised flows are fine: declaring generously costs
// nothing until bytecode actually moves data.
func CheckFlows(ext Extension, rep *AnalysisReport, allow []string) error {
	declared := make(map[string]bool, len(ext.Flows))
	for _, f := range ext.Flows {
		declared[f] = true
	}
	var allowed map[string]bool
	if allow != nil {
		allowed = make(map[string]bool, len(allow))
		for _, f := range allow {
			allowed[f] = true
		}
	}
	for _, rule := range rep.Flows {
		if !declared[rule] {
			return &FlowError{Ext: ext.Name, Rule: rule, Undeclared: true}
		}
		if allowed != nil && !allowed[rule] {
			return &FlowError{Ext: ext.Name, Rule: rule}
		}
	}
	return nil
}

// CheckAdmission decides whether an extension may be admitted: every
// capability its advice can exercise (beyond the always-granted ones) must be
// declared in ext.Caps — receivers grant permissions from the declaration, so
// an under-declared extension would abort inside a node's sandbox — every
// inferred information flow must be declared in ext.Flows (and pass the
// flowAllow allowlist when one is set, nil meaning unrestricted), and, when
// a policy is given, the policy must grant the whole demand. The error names
// the exact missing capabilities via sandbox.Perms.Diff; flow refusals are
// *FlowError.
func CheckAdmission(ext Extension, rep *AnalysisReport, policy sandbox.Policy, flowAllow []string, signer string) error {
	demand := rep.Demand()
	declared := sandbox.NewPerms(ext.Capabilities()...)
	if missing := declared.Diff(demand); len(missing) > 0 {
		return fmt.Errorf("core: extension %q uses undeclared capabilities %v (declares %s)",
			ext.Name, missing, declared)
	}
	if err := CheckFlows(ext, rep, flowAllow); err != nil {
		return err
	}
	if policy == nil {
		return nil
	}
	perms, err := policy.Grant(signer, demand)
	if err != nil {
		return fmt.Errorf("core: extension %q refused by admission policy: %w", ext.Name, err)
	}
	if missing := perms.Diff(demand); len(missing) > 0 {
		return fmt.Errorf("core: extension %q needs capabilities %v beyond admission grant %s",
			ext.Name, missing, perms)
	}
	return nil
}
