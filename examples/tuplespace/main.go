// Tuple-space distribution: the paper's future-work idea (§4.6, citing Linda
// and TSpaces) made concrete. Instead of pushing extensions at discovered
// nodes, the base writes them into a shared tuple space under a lease; nodes
// poll the space and install whatever their trust store accepts. The hall
// renews its tuple's lease, reads the space like any node (Rd) and changes its
// policy by taking the old tuple out (In) before writing the new one.
// Locality still holds: when the base stops renewing the tuple, it vanishes
// and every node autonomously withdraws the extension.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/lvm"
	"repro/internal/sandbox"
	"repro/internal/sign"
	"repro/internal/tuplespace"
	"repro/internal/weave"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	clk := clock.NewManual(time.Unix(0, 0))
	space := tuplespace.New(clk)
	defer space.Close()

	hall, err := sign.NewSigner("hall-1")
	if err != nil {
		return err
	}

	// Two nodes with different trust preferences: pda-a trusts the hall,
	// pda-b trusts nobody.
	makeNode := func(name string, trustHall bool) (*core.Receiver, *core.SpaceListener, error) {
		trust := sign.NewTrustStore()
		if trustHall {
			trust.Trust("hall-1", hall.PublicKey())
		}
		builtins := core.NewBuiltins()
		builtins.Register("noop", func(*core.Env, map[string]string) (aop.Body, error) {
			return aop.BodyFunc(func(*aop.Context) error { return nil }), nil
		})
		receiver, err := core.NewReceiver(core.ReceiverConfig{
			NodeName: name,
			Weaver:   weave.New(),
			Trust:    trust,
			Policy:   sandbox.AllowAll(),
			Clock:    clk,
			Host:     lvm.HostMap{},
			Builtins: builtins,
		})
		if err != nil {
			return nil, nil, err
		}
		return receiver, &core.SpaceListener{Space: space, Receiver: receiver}, nil
	}

	recvA, listenA, err := makeNode("pda-a", true)
	if err != nil {
		return err
	}
	recvB, listenB, err := makeNode("pda-b", false)
	if err != nil {
		return err
	}

	fmt.Println("1. hall-1 writes its policy extension into the shared tuple space (20s lease)")
	extension := core.Extension{
		ID: "hall-1/policy", Name: "hall-policy", Version: 1,
		Advices: []core.AdviceSpec{{Name: "a", Kind: core.KindCallBefore, Pattern: "*.*(..)", Builtin: "noop"}},
	}
	tupleLease, err := core.PublishExtension(space, hall, extension, "hall-1", 20*time.Second)
	if err != nil {
		return err
	}

	fmt.Println("2. both nodes scan the space")
	listenA.Scan(10 * time.Second)
	listenB.Scan(10 * time.Second)
	fmt.Printf("   pda-a installed: %v (trusts hall-1)\n", recvA.Has("hall-policy"))
	fmt.Printf("   pda-b installed: %v (trusts nobody — signature rejected)\n", recvB.Has("hall-policy"))

	fmt.Println("3. the hall keeps renewing the tuple; pda-a keeps renewing its local lease")
	for i := 0; i < 3; i++ {
		clk.Advance(8 * time.Second)
		if err := space.Renew(tupleLease.ID, 20*time.Second); err != nil {
			return err
		}
		space.ExpireNow()
		recvA.Grantor().ExpireNow()
		listenA.Scan(10 * time.Second)
	}
	fmt.Printf("   after 24s: pda-a still adapted: %v, tuples in space: %d\n", recvA.Has("hall-policy"), space.Len())

	fmt.Println("4. hall-1 evolves its policy: it reads v1 (Rd), takes it out (In) and writes v2")
	ctx := context.Background()
	policy := tuplespace.Tuple{tuplespace.FAny(), tuplespace.FStr("hall-policy"), tuplespace.FAny(), tuplespace.FAny(), tuplespace.FAny()}
	current, err := space.Rd(ctx, policy)
	if err != nil {
		return err
	}
	if _, err := space.In(ctx, policy); err != nil {
		return err
	}
	extension.Version = int(current[2].I) + 1
	if _, err := core.PublishExtension(space, hall, extension, "hall-1", 20*time.Second); err != nil {
		return err
	}
	listenA.Scan(10 * time.Second)
	for _, i := range recvA.Installed() {
		fmt.Printf("   pda-a runs %s@v%d\n", i.Name, i.Version)
	}

	fmt.Println("5. the hall disappears; the tuple's lease lapses")
	clk.Advance(21 * time.Second)
	space.ExpireNow()
	fmt.Printf("   tuples left in space: %d\n", space.Len())
	clk.Advance(11 * time.Second)
	recvA.Grantor().ExpireNow()
	fmt.Printf("   pda-a adapted after expiry: %v\n", recvA.Has("hall-policy"))
	for _, a := range recvA.Activity() {
		fmt.Printf("   pda-a activity: %s %s\n", a.Event, a.Ext)
	}
	return nil
}
