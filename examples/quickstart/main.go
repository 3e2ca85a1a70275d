// Quickstart: weave an extension into a running application at run time,
// watch it intercept calls, then withdraw it — the core PROSE loop from §3.1
// in about fifty lines of application code.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/aop"
	"repro/internal/jit"
	"repro/internal/lvm"
	"repro/internal/weave"
)

// The "application": a robot controller in LVM bytecode, compiled by the JIT
// with minimal hook stubs at every join point.
const robotApp = `
class Robot
  field pos
  method void moveArm(int deg)
    getself pos
    load deg
    add
    setself pos
  end
  method int armPos()
    getself pos
    ret
  end
end`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	weaver := weave.New()
	machine := jit.NewMachine(lvm.MustAssemble(robotApp), weaver, nil)
	robot := machine.Prog.Class("Robot").New()

	call := func(deg int64) {
		if _, err := machine.Call("Robot", "moveArm", robot, lvm.Int(deg)); err != nil {
			fmt.Printf("  moveArm(%d) -> DENIED: %v\n", deg, err)
			return
		}
		pos, _ := machine.Call("Robot", "armPos", robot)
		fmt.Printf("  moveArm(%d) -> arm at %d\n", deg, pos.I)
	}

	fmt.Println("1. Application running, no extensions woven:")
	call(30)
	call(45)

	// The environment becomes proactive: a monitoring + authorization aspect
	// is woven into the running application. The robot code is unchanged.
	monitor := &aop.Aspect{
		Name: "hall-policy",
		Advices: []aop.Advice{
			aop.BeforeCall("Robot.moveArm(..)", aop.BodyFunc(func(ctx *aop.Context) error {
				fmt.Printf("  [extension] intercept %s.%s(%s)\n", ctx.Sig.Class, ctx.Sig.Method, ctx.Arg(0))
				if ctx.Arg(0).AsInt() > 90 {
					ctx.Abortf("rotation %d exceeds hall safety limit", ctx.Arg(0).AsInt())
				}
				return nil
			})),
			aop.OnFieldSet("Robot.pos", aop.BodyFunc(func(ctx *aop.Context) error {
				fmt.Printf("  [extension] state change * -> pos=%s\n", ctx.Arg(0))
				return nil
			})),
		},
	}
	fmt.Println("\n2. Robot enters the hall; the hall weaves its policy extension:")
	if err := weaver.Insert(monitor); err != nil {
		return err
	}
	call(10)
	call(200) // vetoed by the policy

	fmt.Println("\n3. Robot leaves the hall; the extension is discarded:")
	if err := weaver.Withdraw(context.Background(), "hall-policy"); err != nil {
		return err
	}
	call(200) // no policy anymore

	fmt.Printf("\nsites registered: %d, active after withdrawal: %d\n",
		weaver.SiteCount(), weaver.ActiveSiteCount())
	return nil
}
