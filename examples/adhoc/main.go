// Ad-hoc mode: the symmetric configuration of §2.1/§3.2 — every node embeds
// BOTH an extension base and an extension receiver, and a lookup service its
// base watches. Three devices meet spontaneously; each announces its lookup,
// and every peer that hears the announcement joins it (Receiver.AutoJoin), so
// the announcer's base adapts the newcomer with its own extension. The
// community converges to the union of all extensions without any fixed
// infrastructure, and when one peer leaves, its extensions disappear from the
// others through lease expiry.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/lvm"
	"repro/internal/mobility"
	"repro/internal/registry"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/transport"
	"repro/internal/weave"
)

type peer struct {
	name     string
	lookup   *registry.Lookup
	lookupSv *registry.Server
	base     *core.Base
	receiver *core.Receiver
	weaver   *weave.Weaver
	signer   *sign.Signer
	trust    *sign.TrustStore
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fabric := transport.NewInProc()
	world := mobility.NewWorld()
	world.SetNodeRange(50)
	bus := discovery.NewBus()

	names := []string{"pda-a", "pda-b", "laptop-c"}
	peers := make([]*peer, 0, len(names))
	for i, name := range names {
		p, err := newPeer(fabric, name)
		if err != nil {
			return err
		}
		if err := world.AddNode(name, name, mobility.Point{X: float64(i * 10)}); err != nil {
			return err
		}
		peers = append(peers, p)
	}
	fabric.SetLinkFunc(world.LinkFunc())

	// Everyone trusts everyone in this community (each node's own choice).
	for _, p := range peers {
		for _, q := range peers {
			p.trust.Trust(q.name, q.signer.PublicKey())
		}
	}

	// Each peer joins the lookup of every other peer it can hear; each base
	// watches its own lookup and adapts whoever joins it.
	for _, p := range peers {
		me := p
		stop := me.receiver.AutoJoin(bus, func(lookupAddr string) *registry.Client {
			return &registry.Client{Caller: fabric.Node(me.name), Addr: lookupAddr}
		}, time.Minute, nil, func(a discovery.Announcement) bool {
			return a.Name != me.name && world.Linked(me.name, a.LookupAddr)
		})
		defer stop()
		if _, err := me.base.WatchLookup(&registry.Client{Caller: fabric.Node(me.name), Addr: me.name}, time.Minute); err != nil {
			return err
		}
	}

	fmt.Println("1. three devices meet and announce their lookups; each peer joins the others'")
	for _, p := range peers {
		bus.Announce(discovery.Announcement{Name: p.name, LookupAddr: p.name})
	}
	for _, p := range peers {
		var joined []string
		for _, it := range p.lookup.Find(registry.Template{Name: core.AdaptationService}) {
			joined = append(joined, it.ID)
		}
		sort.Strings(joined)
		fmt.Printf("   %-9s lookup lists %v\n", p.name, joined)
	}

	waitFor(func() bool {
		for _, p := range peers {
			if len(p.receiver.Installed()) != len(peers)-1 {
				return false
			}
		}
		return true
	})
	fmt.Println("2. community converged: every node carries every peer's extension")
	for _, p := range peers {
		fmt.Printf("   %-9s has %v\n", p.name, extNames(p.receiver))
	}

	fmt.Println("3. laptop-c leaves the community")
	if err := world.MoveNode("laptop-c", mobility.Point{X: 10_000}); err != nil {
		return err
	}
	waitFor(func() bool {
		for _, p := range peers[:2] {
			if p.receiver.Has("svc-laptop-c") {
				return false
			}
		}
		return true
	})
	fmt.Println("4. its extensions expired everywhere; remaining community:")
	for _, p := range peers[:2] {
		fmt.Printf("   %-9s has %v\n", p.name, extNames(p.receiver))
	}
	for _, p := range peers {
		p.base.Close()
		p.lookupSv.Close()
		p.receiver.Grantor().Stop()
	}
	return nil
}

func newPeer(fabric *transport.InProc, name string) (*peer, error) {
	signer, err := sign.NewSigner(name)
	if err != nil {
		return nil, err
	}
	weaver := weave.New()
	trust := sign.NewTrustStore()
	builtins := core.NewBuiltins()
	builtins.Register("community-svc", func(env *core.Env, cfg map[string]string) (aop.Body, error) {
		return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
	})
	receiver, err := core.NewReceiver(core.ReceiverConfig{
		NodeName: name, Addr: name,
		Weaver: weaver, Trust: trust, Policy: sandbox.AllowAll(),
		Host: lvm.HostMap{}, Builtins: builtins,
	})
	if err != nil {
		return nil, err
	}
	receiver.Grantor().Start(10 * time.Millisecond)
	base, err := core.NewBase(core.BaseConfig{
		Name: name, Addr: name,
		Caller: fabric.Node(name), Signer: signer,
		LeaseDur: 100 * time.Millisecond, CallTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	// Each node offers one extension of its own to the community.
	if err := base.AddExtension(core.Extension{
		ID:      name + "/svc",
		Name:    "svc-" + name,
		Version: 1,
		Advices: []core.AdviceSpec{{
			Name:    "a",
			Kind:    core.KindCallBefore,
			Pattern: "*.*(..)",
			Builtin: "community-svc",
		}},
	}); err != nil {
		return nil, err
	}
	mux := transport.NewMux()
	receiver.ServeOn(mux)
	base.ServeOn(mux)
	lookup := registry.NewLookup(clock.Real{})
	lookupSv := registry.NewServer(lookup, mux, fabric.Node(name), clock.Real{})
	if _, err := fabric.Serve(name, mux); err != nil {
		return nil, err
	}
	return &peer{name: name, lookup: lookup, lookupSv: lookupSv, base: base, receiver: receiver, weaver: weaver, signer: signer, trust: trust}, nil
}

func extNames(r *core.Receiver) []string {
	var out []string
	for _, i := range r.Installed() {
		out = append(out, i.Name)
	}
	sort.Strings(out)
	return out
}

func waitFor(cond func() bool) {
	clk := clock.Real{}
	deadline := clk.Now().Add(5 * time.Second)
	for !cond() && clk.Now().Before(deadline) {
		<-clk.After(2 * time.Millisecond)
	}
}
