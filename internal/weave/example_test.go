package weave_test

import (
	"context"
	"fmt"

	"repro/internal/aop"
	"repro/internal/jit"
	"repro/internal/lvm"
	"repro/internal/weave"
)

// Example demonstrates the core PROSE loop: compile an application with hook
// stubs, weave an aspect at run time, observe the interception, withdraw.
func Example() {
	weaver := weave.New()
	machine := jit.NewMachine(lvm.MustAssemble(`
class Robot
  method void moveArm(int deg)
    retv
  end
end`), weaver, nil)

	aspect := &aop.Aspect{
		Name: "monitor",
		Advices: []aop.Advice{
			aop.BeforeCall("Robot.moveArm(..)", aop.BodyFunc(func(ctx *aop.Context) error {
				fmt.Printf("intercepted %s.%s(%s)\n", ctx.Sig.Class, ctx.Sig.Method, ctx.Arg(0))
				return nil
			})),
		},
	}
	if err := weaver.Insert(aspect); err != nil {
		fmt.Println(err)
		return
	}
	if _, err := machine.Call("Robot", "moveArm", nil, lvm.Int(30)); err != nil {
		fmt.Println(err)
		return
	}
	if err := weaver.Withdraw(context.Background(), "monitor"); err != nil {
		fmt.Println(err)
		return
	}
	if _, err := machine.Call("Robot", "moveArm", nil, lvm.Int(60)); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("withdrawn: second call not intercepted")
	// Output:
	// intercepted Robot.moveArm(30)
	// withdrawn: second call not intercepted
}

// ExampleMethodHooks shows how a native Go service routes its calls through
// the weaver so extensions can adapt it.
func ExampleMethodHooks() {
	weaver := weave.New()
	hooks := weaver.HookMethod(aop.Signature{
		Class: "Greeter", Method: "greet", Return: "str", Params: []string{"str"},
	})

	greet := func(args []lvm.Value) (lvm.Value, error) {
		return lvm.Str("hello, " + args[0].S), nil
	}

	polite := &aop.Aspect{
		Name: "politeness",
		Advices: []aop.Advice{
			aop.AfterCall("Greeter.*(..)", aop.BodyFunc(func(ctx *aop.Context) error {
				ctx.SetResult(lvm.Str(ctx.Result.S + "!"))
				return nil
			})),
		},
	}
	if err := weaver.Insert(polite); err != nil {
		fmt.Println(err)
		return
	}
	out, err := hooks.Invoke(nil, []lvm.Value{lvm.Str("world")}, greet)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(out.S)
	// Output:
	// hello, world!
}
