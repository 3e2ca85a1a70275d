package jit

import (
	"testing"

	"repro/internal/lvm"
	"repro/internal/weave"
	"repro/internal/workload"
)

// TestJITCallAllocs pins the call path at zero allocations: Calls.run(150)
// makes 150 LVM calls, whose arguments the callee reads in place from the
// caller's operand stack, on a plain machine and on a woven machine whose
// stubs are planted but inactive.
func TestJITCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	for _, tc := range []struct {
		name   string
		weaver *weave.Weaver
	}{{"plain", nil}, {"woven", weave.New()}} {
		m := NewMachine(workload.Program(), tc.weaver, nil)
		meth := m.Prog.Method("Calls", "run")
		self := m.Prog.Class("Calls").New()
		args := []lvm.Value{lvm.Int(150)}
		want, err := workload.Expected("calls", 150)
		if err != nil {
			t.Fatal(err)
		}
		var got lvm.Value
		allocs := testing.AllocsPerRun(100, func() {
			got, err = m.Invoke(meth, self, args)
		})
		if err != nil || got.I != want {
			t.Fatalf("%s: Calls.run(150) = %v, %v; want %d", tc.name, got, err, want)
		}
		if allocs != 0 {
			t.Errorf("%s: Calls.run(150) makes %.0f allocs, want 0", tc.name, allocs)
		}
	}
}
