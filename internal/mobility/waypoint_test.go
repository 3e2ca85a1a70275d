package mobility

import (
	"math"
	"testing"
	"time"
)

func TestMoverWalksRoute(t *testing.T) {
	w := twoHallWorld(t)
	if err := w.AddNode("robot", "r1", Point{X: 0, Y: 0}); err != nil {
		t.Fatal(err)
	}
	m := NewMover(w)
	// Walk from hall-1 (x=0) to hall-2 (x=100) at 10 m/s.
	if err := m.SetRoute("robot", []Point{{X: 100, Y: 0}}, 10, false); err != nil {
		t.Fatal(err)
	}

	var exits, enters int
	w.OnTransition(func(node string, entered, exited []string) {
		enters += len(entered)
		exits += len(exited)
	})

	m.Step(2 * time.Second) // 20 m: just outside hall-1's 10 m radius
	pos, _ := w.NodePos("robot")
	if math.Abs(pos.X-20) > 1e-9 {
		t.Fatalf("x = %f, want 20", pos.X)
	}
	if exits != 1 {
		t.Errorf("exits = %d", exits)
	}
	m.Step(8 * time.Second) // reaches x=100 exactly
	pos, _ = w.NodePos("robot")
	if math.Abs(pos.X-100) > 1e-9 {
		t.Fatalf("x = %f, want 100", pos.X)
	}
	if enters != 1 {
		t.Errorf("enters = %d", enters)
	}
	// Route finished: mover idles.
	if m.Moving("robot") {
		t.Error("finished route still active")
	}
	m.Step(time.Second)
	pos, _ = w.NodePos("robot")
	if pos.X != 100 {
		t.Errorf("node moved after route end: %v", pos)
	}
}

func TestMoverMultipleWaypoints(t *testing.T) {
	w := NewWorld()
	if err := w.AddNode("n", "n", Point{}); err != nil {
		t.Fatal(err)
	}
	m := NewMover(w)
	square := []Point{{X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}, {X: 0, Y: 0}}
	if err := m.SetRoute("n", square, 5, false); err != nil {
		t.Fatal(err)
	}
	// Total route length 40 m at 5 m/s = 8 s; step past a corner.
	m.Step(3 * time.Second) // 15 m: 10 along x, 5 up y
	pos, _ := w.NodePos("n")
	if math.Abs(pos.X-10) > 1e-9 || math.Abs(pos.Y-5) > 1e-9 {
		t.Fatalf("pos = %+v, want (10,5)", pos)
	}
	m.Step(5 * time.Second) // complete
	pos, _ = w.NodePos("n")
	if math.Abs(pos.X) > 1e-9 || math.Abs(pos.Y) > 1e-9 {
		t.Fatalf("pos = %+v, want origin", pos)
	}
}

func TestMoverLoops(t *testing.T) {
	w := NewWorld()
	if err := w.AddNode("n", "n", Point{}); err != nil {
		t.Fatal(err)
	}
	m := NewMover(w)
	if err := m.SetRoute("n", []Point{{X: 10, Y: 0}, {X: 0, Y: 0}}, 10, true); err != nil {
		t.Fatal(err)
	}
	m.Step(4 * time.Second) // 40 m = two full loops
	if !m.Moving("n") {
		t.Error("looping route should stay active")
	}
	pos, _ := w.NodePos("n")
	if math.Abs(pos.X) > 1e-9 {
		t.Errorf("pos after loops = %+v", pos)
	}
}

func TestMoverValidation(t *testing.T) {
	w := NewWorld()
	m := NewMover(w)
	if err := m.SetRoute("ghost", []Point{{X: 1}}, 1, false); err == nil {
		t.Error("unknown node accepted")
	}
	if err := w.AddNode("n", "n", Point{}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRoute("n", nil, 1, false); err == nil {
		t.Error("empty route accepted")
	}
	if err := m.SetRoute("n", []Point{{X: 1}}, 0, false); err == nil {
		t.Error("zero speed accepted")
	}
}
