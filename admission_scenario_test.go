// Admission scenario: the full static-analysis gate played out on the
// deterministic simulator. A base with a store+clock-only admission policy
// refuses an exfiltrating extension (mobile code that posts join-point
// signatures off-node) before it is ever signed or pushed, while a compliant
// audit extension flows through adaptation to the node as usual. A second act
// checks the node-side defense in depth: an under-declared extension signed
// by a trusted key and pushed directly (bypassing the base) is rejected by
// the receiver's pre-weave analysis.
package repro

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/transport"
)

// exfilSource mirrors examples/advice/exfiltrate.lasm: the inferred
// capability set is {ctx, net}.
const exfilSource = `
class Ext
  method void advice()
    hostcall ctx.class 0
    push "."
    concat
    hostcall ctx.method 0
    concat
    hostcall net.post 1
    pop
  end
end`

// auditScenarioSource mirrors examples/advice/audit.lasm: inferred {clock,
// ctx, store}, statically bounded.
const auditScenarioSource = `
class Ext
  method void advice()
    hostcall ctx.method 0
    push "@"
    concat
    hostcall clock.now 0
    concat
    hostcall store.put 1
    pop
  end
end`

func codeScenarioExt(name string, caps []string, source string) core.Extension {
	return core.Extension{
		ID:      "ext/" + name,
		Name:    name,
		Version: 1,
		Advices: []core.AdviceSpec{{
			Name:    "a",
			Kind:    core.KindCallBefore,
			Pattern: "Motor.*(..)",
			Code:    source,
		}},
		Caps: caps,
	}
}

// newAdmissionBase is newBase with a capability admission policy installed.
func (w *simWorld) newAdmissionBase(name string, admission sandbox.Policy) *scenarioBase {
	w.t.Helper()
	signer, err := sign.NewSigner(name)
	if err != nil {
		w.t.Fatal(err)
	}
	b := &scenarioBase{name: name, reg: metrics.New(), signer: signer}
	b.base, err = core.NewBase(core.BaseConfig{
		Name:        name,
		Addr:        name,
		Caller:      w.net.Node(name),
		Signer:      signer,
		Clock:       w.clk,
		CallTimeout: time.Hour, // the simulated clock governs; simnet fails lost calls at once
		Admission:   admission,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(b.base.Close)
	b.base.Instrument(b.reg)
	mux := transport.NewMux()
	b.base.ServeOn(mux)
	stop, err := w.net.Serve(name, mux)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(stop)
	return b
}

func TestScenarioAdmissionBlocksExfiltration(t *testing.T) {
	w := newSimWorld(t)
	base := w.newAdmissionBase("base-1", sandbox.Allowlist(sandbox.CapStore, sandbox.CapClock))
	node := w.newNode("robot1", base.signer)

	// The exfiltrating extension declares its net demand honestly; the
	// store+clock admission policy still refuses it, before signing or push.
	leak := codeScenarioExt("leak", []string{"net"}, exfilSource)
	err := base.base.AddExtension(leak)
	if err == nil || !strings.Contains(err.Error(), "admission") {
		t.Fatalf("want admission rejection, got %v", err)
	}
	if got := base.counter("base.admission_rejected"); got != 1 {
		t.Errorf("base.admission_rejected = %d, want 1", got)
	}
	if _, ok := base.base.AnalysisFor("leak"); ok {
		t.Error("rejected extension left a stored analysis report")
	}

	// The compliant audit extension is admitted and reaches the node.
	audit := codeScenarioExt("audit", []string{"clock", "store"}, auditScenarioSource)
	if err := base.base.AddExtension(audit); err != nil {
		t.Fatal(err)
	}
	adaptWithRetries(t, base, "robot1", "robot1")
	waitFor(t, "audit installed on robot1", func() bool {
		for _, i := range node.receiver.Installed() {
			if i.Name == "audit" {
				return true
			}
		}
		return false
	})
	for _, i := range node.receiver.Installed() {
		if i.Name == "leak" {
			t.Fatal("rejected extension reached the node")
		}
	}
	// The stored analysis of the admitted extension is retained at the base.
	rep, ok := base.base.AnalysisFor("audit")
	if !ok || !rep.FuelBounded {
		t.Errorf("stored audit analysis = %+v (have %v), want a bounded report", rep, ok)
	}
}

func TestScenarioReceiverPreWeaveDefense(t *testing.T) {
	w := newSimWorld(t)
	base := w.newBase("base-1", nil)
	node := w.newNode("robot1", base.signer)

	// Bypass the base's admission gate entirely: sign an under-declared
	// extension (no caps requested, net.post in the code) with the trusted
	// key and hand it straight to the receiver, as a compromised or legacy
	// base would. The node's own pre-weave analysis catches it.
	sneaky := codeScenarioExt("sneaky", nil, exfilSource)
	signed, err := core.Sign(base.signer, sneaky)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.receiver.Install(signed, "base-1", time.Minute); err == nil ||
		!strings.Contains(err.Error(), "beyond grant") {
		t.Fatalf("want pre-weave capability rejection, got %v", err)
	}
	if n := len(node.receiver.Installed()); n != 0 {
		t.Errorf("%d extensions installed, want none", n)
	}
}

// launderScenarioSource mirrors examples/advice/launder.lasm: a stored
// secret routed through a helper method and a field into net.post. Inferred
// caps {ctx, net, store} — declarable — but the store->net flow is not.
const launderScenarioSource = `
class Ext
  field stash
  method void advice()
    load self
    call fetch 0
    pop
    load self
    getfield stash
    hostcall net.post 1
    pop
    retv
  end
  method int fetch()
    load self
    push "secret"
    hostcall store.get 1
    setfield stash
    push 0
    ret
  end
end`

func TestScenarioFlowAdmissionBlocksLaundering(t *testing.T) {
	w := newSimWorld(t)
	// The admission policy grants every capability the extension declares —
	// only the information-flow check can refuse it.
	base := w.newAdmissionBase("base-1", sandbox.AllowAll())
	node := w.newNode("robot1", base.signer)

	// Act one: the laundering extension declares {net, store} honestly, so
	// the capability gate passes; the undeclared store->net flow is refused
	// before the extension is ever signed or pushed.
	launder := codeScenarioExt("launder", []string{"net", "store"}, launderScenarioSource)
	err := base.base.AddExtension(launder)
	if err == nil || !strings.Contains(err.Error(), "undeclared information flow store->net") {
		t.Fatalf("want undeclared-flow rejection, got %v", err)
	}
	if got := base.counter("base.admission_flow_rejected"); got != 1 {
		t.Errorf("base.admission_flow_rejected = %d, want 1", got)
	}
	if got := base.counter("base.admission_rejected"); got != 1 {
		t.Errorf("base.admission_rejected = %d, want 1", got)
	}
	if _, ok := base.base.AnalysisFor("launder"); ok {
		t.Error("rejected extension left a stored analysis report")
	}

	// Act two: a rogue (or compromised) base signs the identical bytecode
	// with the trusted key and pushes it straight to the node. The signature
	// verifies and the capability grant covers the demand — the receiver's
	// own pre-weave flow analysis is the last line of defense.
	signed, err := core.Sign(base.signer, launder)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.receiver.Install(signed, "base-1", time.Minute); err == nil ||
		!strings.Contains(err.Error(), "pre-weave flow check") {
		t.Fatalf("want pre-weave flow rejection, got %v", err)
	}
	if n := len(node.receiver.Installed()); n != 0 {
		t.Errorf("%d extensions installed, want none", n)
	}

	// Declaring the flow in the descriptor admits the same bytecode end to
	// end: the paper's model is explicit contracts, not forbidden behavior.
	declared := codeScenarioExt("launder-declared", []string{"net", "store"}, launderScenarioSource)
	declared.Flows = []string{"store->net"}
	if err := base.base.AddExtension(declared); err != nil {
		t.Fatalf("flow-declaring extension rejected: %v", err)
	}
	adaptWithRetries(t, base, "robot1", "robot1")
	waitFor(t, "launder-declared installed on robot1", func() bool {
		for _, i := range node.receiver.Installed() {
			if i.Name == "launder-declared" {
				return true
			}
		}
		return false
	})
}
