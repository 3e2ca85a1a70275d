package mobility

import (
	"testing"
	"testing/quick"
)

func twoHallWorld(t *testing.T) *World {
	t.Helper()
	w := NewWorld()
	if err := w.AddArea(Area{Name: "hall-1", Center: Point{X: 0, Y: 0}, Radius: 10, BaseAddr: "base-1"}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddArea(Area{Name: "hall-2", Center: Point{X: 100, Y: 0}, Radius: 10, BaseAddr: "base-2"}); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestAreaMembership(t *testing.T) {
	w := twoHallWorld(t)
	if err := w.AddNode("robot", "r1", Point{X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if !w.InArea("robot", "hall-1") {
		t.Error("robot should be in hall-1")
	}
	if w.InArea("robot", "hall-2") {
		t.Error("robot should not be in hall-2")
	}
}

func TestTransitions(t *testing.T) {
	w := twoHallWorld(t)
	if err := w.AddNode("robot", "r1", Point{X: 0, Y: 0}); err != nil {
		t.Fatal(err)
	}
	type ev struct {
		node            string
		entered, exited []string
	}
	var events []ev
	w.OnTransition(func(node string, entered, exited []string) {
		events = append(events, ev{node, entered, exited})
	})

	// Move within hall-1: no transition.
	if err := w.MoveNode("robot", Point{X: 2, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("unexpected events: %v", events)
	}
	// Move to no-man's land: exit hall-1.
	if err := w.MoveNode("robot", Point{X: 50, Y: 0}); err != nil {
		t.Fatal(err)
	}
	// Move into hall-2: enter hall-2.
	if err := w.MoveNode("robot", Point{X: 100, Y: 0}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	if len(events[0].exited) != 1 || events[0].exited[0] != "hall-1" {
		t.Errorf("event[0] = %+v", events[0])
	}
	if len(events[1].entered) != 1 || events[1].entered[0] != "hall-2" {
		t.Errorf("event[1] = %+v", events[1])
	}
}

func TestLinkedNodeToBase(t *testing.T) {
	w := twoHallWorld(t)
	if err := w.AddNode("robot", "r1", Point{X: 0, Y: 0}); err != nil {
		t.Fatal(err)
	}
	if !w.Linked("r1", "base-1") || !w.Linked("base-1", "r1") {
		t.Error("in-range node should reach its base (both directions)")
	}
	if w.Linked("r1", "base-2") {
		t.Error("node should not reach a distant base")
	}
	if err := w.MoveNode("robot", Point{X: 100, Y: 0}); err != nil {
		t.Fatal(err)
	}
	if w.Linked("r1", "base-1") {
		t.Error("node that left should lose its base")
	}
	if !w.Linked("r1", "base-2") {
		t.Error("node should reach the new hall's base")
	}
}

func TestLinkedInfrastructure(t *testing.T) {
	w := twoHallWorld(t)
	if !w.Linked("base-1", "base-2") {
		t.Error("bases are wired")
	}
	if !w.Linked("base-1", "unknown-service") {
		t.Error("unknown addresses are wired infrastructure")
	}
}

func TestLinkedNodeToNode(t *testing.T) {
	w := twoHallWorld(t)
	if err := w.AddNode("a", "na", Point{X: 0, Y: 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddNode("b", "nb", Point{X: 3, Y: 4}); err != nil {
		t.Fatal(err)
	}
	if w.Linked("na", "nb") {
		t.Error("ad-hoc links disabled by default")
	}
	w.SetNodeRange(5)
	if !w.Linked("na", "nb") {
		t.Error("nodes within range should link")
	}
	w.SetNodeRange(4.9)
	if w.Linked("na", "nb") {
		t.Error("nodes beyond range should not link")
	}
}

func TestDuplicateRegistration(t *testing.T) {
	w := twoHallWorld(t)
	if err := w.AddArea(Area{Name: "hall-1"}); err == nil {
		t.Error("duplicate area should fail")
	}
	if err := w.AddNode("n", "a", Point{}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddNode("n", "b", Point{}); err == nil {
		t.Error("duplicate node should fail")
	}
	if err := w.MoveNode("ghost", Point{}); err == nil {
		t.Error("moving unknown node should fail")
	}
}

func TestDistProperties(t *testing.T) {
	// Symmetry and identity.
	if err := quick.Check(func(x1, y1, x2, y2 float64) bool {
		if !finite(x1) || !finite(y1) || !finite(x2) || !finite(y2) {
			return true
		}
		p, q := Point{X: x1, Y: y1}, Point{X: x2, Y: y2}
		return p.Dist(q) == q.Dist(p) && p.Dist(p) == 0
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func finite(f float64) bool {
	return f == f && f < 1e150 && f > -1e150
}
