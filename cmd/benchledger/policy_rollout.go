package main

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
)

// policy_rollout is the write side of adaptation: a base keeps replacing one
// LVM-bytecode extension with its next version on two real receivers over
// TCP (one connection each). One operation is one Base.ReplaceExtension:
// admission analysis, signing, the push, signature verification and
// re-analysis at each receiver, compilation and the weave replace.

type policyRollout struct {
	rec     *recorder
	slot    opSlot
	nodes   [2]*node
	base    *core.Base
	baseTCP *transport.TCPCaller
	reg     *metrics.Registry // the base's
	bodies  [2]rolloutBody
	rng     *rand.Rand
	next    []int // body order of the current pair of rollouts
	version int
}

// rolloutBody is one advice body a rollout may carry.
type rolloutBody struct {
	name string
	code string
	caps []string
}

func rolloutBodies() ([2]rolloutBody, error) {
	var out [2]rolloutBody
	for i, b := range []struct {
		name string
		caps []string
	}{{"movelimit", nil}, {"audit", []string{"clock", "store"}}} {
		code, err := readAdvice(b.name)
		if err != nil {
			return out, err
		}
		out[i] = rolloutBody{name: b.name, code: code, caps: b.caps}
	}
	return out, nil
}

// policyExtension is version v of the rolled-out extension carrying body.
func policyExtension(v int, body rolloutBody) core.Extension {
	return core.Extension{
		ID: fmt.Sprintf("hall/policy-%d", v), Name: "policy", Version: v,
		Advices: []core.AdviceSpec{{Name: body.name, Kind: core.KindCallBefore, Pattern: "Robot.*(..)", Code: body.code}},
		Caps:    body.caps,
	}
}

func setupPolicyRollout(cfg config, rec *recorder) (bench, error) {
	bodies, err := rolloutBodies()
	if err != nil {
		return nil, err
	}
	signer, err := sign.NewSigner("hall")
	if err != nil {
		return nil, err
	}
	r := &policyRollout{rec: rec, bodies: bodies, baseTCP: transport.NewTCPCaller(), reg: metrics.New(), rng: rand.New(rand.NewSource(cfg.seed)), version: 1}
	for i := range r.nodes {
		n, err := newNode(fmt.Sprintf("robot-%d", i+1), signer, cfg.seed+int64(i), rec, &r.slot)
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes[i] = n
	}
	var caller transport.Caller = uncancelled{r.baseTCP}
	if rec != nil {
		caller = &spanCaller{inner: caller, rec: rec, slot: &r.slot, name: "transport.call", parent: "op", top: true}
	}
	// One shard: the two pushes of a rollout then always run in the same
	// order, instead of overlapping or not depending on how two random
	// loopback ports hash.
	r.base, err = core.NewBase(core.BaseConfig{Name: "hall", Addr: "hall", Caller: caller, Signer: signer, Store: store.NewMemory(), Shards: 1})
	if err != nil {
		r.close()
		return nil, err
	}
	r.base.Trace(trace.New(cfg.seed))
	r.base.Instrument(r.reg)
	if err := r.base.AddExtension(policyExtension(1, bodies[0])); err != nil {
		r.close()
		return nil, err
	}
	for _, n := range r.nodes {
		if err := r.base.AdaptNode(n.name, n.srv.Addr()); err != nil {
			r.close()
			return nil, fmt.Errorf("adapt %s: %w", n.name, err)
		}
	}
	if !r.rolledOut() {
		r.close()
		return nil, fmt.Errorf("receivers do not hold policy@1 after set-up")
	}
	return r, nil
}

// rolledOut reports whether both receivers hold the current version.
func (r *policyRollout) rolledOut() bool {
	for _, n := range r.nodes {
		found := false
		for _, x := range n.receiver.Installed() {
			found = found || (x.Name == "policy" && x.Version == r.version)
		}
		if !found {
			return false
		}
	}
	return true
}

func (r *policyRollout) run(b *budget) phase {
	var p phase
	for b.next() {
		// Bodies come in pairs holding one of each, in seeded order, so every
		// seed rolls out the same mix.
		if len(r.next) == 0 {
			r.next = r.rng.Perm(len(r.bodies))
		}
		body := r.bodies[r.next[0]]
		r.next = r.next[1:]
		r.version++
		e := policyExtension(r.version, body)
		pushErrs := r.reg.CounterValue("base.push_errors")
		op := r.rec.beginOp(&r.slot)
		t0 := now()
		err := r.base.ReplaceExtension(e)
		d := since(t0)
		r.rec.endOp(&r.slot, op, "op")
		p.attempted++
		// ReplaceExtension logs and counts failed pushes instead of returning
		// them, so a push error fails the rollout. A receiver missing the new
		// version although every push succeeded is a wrong output.
		switch {
		case err != nil, r.reg.CounterValue("base.push_errors") != pushErrs:
			p.failed++
		case !r.rolledOut():
			p.failed++
			p.wrong++
		default:
			p.ok(d)
		}
	}
	return p
}

func (r *policyRollout) report(w io.Writer) {
	fmt.Fprintf(w, "base.push_errors %d (since set-up)\n", r.reg.CounterValue("base.push_errors"))
	for _, n := range r.nodes {
		fmt.Fprintf(w, "%s holds %s; %d server connections accepted\n", n.name, installedNames(n.receiver), n.reg.CounterValue("transport.serve_wire_conns"))
	}
}

func (r *policyRollout) close() {
	if r.base != nil {
		r.base.Close()
	}
	r.baseTCP.Close()
	for _, n := range r.nodes {
		if n != nil {
			n.close()
		}
	}
}
