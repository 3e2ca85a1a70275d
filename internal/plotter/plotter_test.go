package plotter

import (
	"strings"
	"testing"

	"repro/internal/aop"
	"repro/internal/lvm"
	"repro/internal/svc"
	"repro/internal/transport"
	"repro/internal/weave"
)

func newPlotter(t *testing.T) (*weave.Weaver, *Canvas, *Plotter) {
	t.Helper()
	w := weave.New()
	canvas := NewCanvas(20, 20)
	p, err := New(w, canvas)
	if err != nil {
		t.Fatal(err)
	}
	return w, canvas, p
}

func TestDrawLine(t *testing.T) {
	_, canvas, p := newPlotter(t)
	if err := p.MoveTo(2, 2); err != nil {
		t.Fatal(err)
	}
	if canvas.Count() != 0 {
		t.Fatal("pen-up movement inked")
	}
	if err := p.Line(5, 2); err != nil {
		t.Fatal(err)
	}
	for x := 2; x <= 5; x++ {
		if !canvas.marked[[2]int{x, 2}] {
			t.Errorf("(%d,2) not inked", x)
		}
	}
	if canvas.marked[[2]int{6, 2}] {
		t.Error("overshoot")
	}
}

func TestRenderShowsInk(t *testing.T) {
	_, canvas, p := newPlotter(t)
	if err := p.Line(1, 0); err != nil {
		t.Fatal(err)
	}
	r := canvas.Render()
	if !strings.HasPrefix(r, "##") {
		t.Errorf("render = %q...", r[:10])
	}
}

func TestMovementControlExtensionLimitsPlotter(t *testing.T) {
	w, canvas, p := newPlotter(t)
	// Forbid movements beyond x = 3 so "certain parts of the paper remain
	// untouched" (§4.5): veto any position write beyond the limit.
	guard := &aop.Aspect{Name: "control", Advices: []aop.Advice{
		aop.OnFieldSet("Motor.pos", aop.BodyFunc(func(ctx *aop.Context) error {
			if id, _ := ctx.Self.FieldByName("id"); id.S == "x" && ctx.Arg(0).AsInt() > 3 {
				ctx.Abort("x beyond limit")
			}
			return nil
		})),
	}}
	if err := w.Insert(guard); err != nil {
		t.Fatal(err)
	}
	err := p.Line(10, 0)
	if err == nil {
		t.Fatal("limit not enforced")
	}
	x, _ := p.Position()
	if x != 3 {
		t.Errorf("x = %d, want 3", x)
	}
	if canvas.marked[[2]int{4, 0}] {
		t.Error("forbidden cell inked")
	}
}

func TestServiceDrivesPlotter(t *testing.T) {
	w, canvas, p := newPlotter(t)
	reg := svc.NewRegistry(w)
	p.RegisterService(reg)
	mux := transport.NewMux()
	reg.ServeOn(mux)
	fabric := transport.NewInProc()
	stop, err := fabric.Serve("plotter1", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	caller := fabric.Node("drawingprog")
	if _, err := svc.Call(caller, "plotter1", ServiceName, "line", "artist", lvm.Int(3), lvm.Int(0)); err != nil {
		t.Fatal(err)
	}
	if !canvas.marked[[2]int{1, 0}] {
		t.Error("remote line not drawn")
	}
	pos, err := svc.Call(caller, "plotter1", ServiceName, "position", "artist")
	if err != nil || pos.S != "3,0" {
		t.Errorf("position = %v, %v", pos, err)
	}
	if _, err := svc.Call(caller, "plotter1", ServiceName, "penDown", "artist"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Call(caller, "plotter1", ServiceName, "penUp", "artist"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Call(caller, "plotter1", ServiceName, "moveTo", "artist", lvm.Int(0), lvm.Int(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Call(caller, "plotter1", ServiceName, "rotate", "artist", lvm.Int(2)); err != nil {
		t.Fatal(err)
	}
}

func TestReplayReproducesDrawing(t *testing.T) {
	_, canvas, p := newPlotter(t)
	if err := p.Line(4, 0); err != nil {
		t.Fatal(err)
	}
	want := canvas.Count()

	// Re-execute the recorded trace on a fresh plotter.
	var cmds []ReplayCommand
	for _, c := range p.ctrl.Trace() {
		cmds = append(cmds, ReplayCommand{Device: c.Device, Action: c.Action, Value: c.Value})
	}
	_, canvas2, p2 := newPlotter(t)
	if err := p2.Replay(cmds); err != nil {
		t.Fatal(err)
	}
	if canvas2.Count() != want {
		t.Errorf("replayed %d cells, want %d", canvas2.Count(), want)
	}
	for x := 0; x <= 4; x++ {
		if canvas2.marked[[2]int{x, 0}] != canvas.marked[[2]int{x, 0}] {
			t.Errorf("cell (%d,0) differs", x)
		}
	}
}

func TestCanvasBounds(t *testing.T) {
	c := NewCanvas(2, 2)
	c.Mark(-1, 0)
	c.Mark(0, 5)
	c.Mark(1, 1)
	if c.Count() != 1 {
		t.Errorf("Count = %d", c.Count())
	}
}

func TestPenIdempotent(t *testing.T) {
	_, _, p := newPlotter(t)
	if err := p.PenDown(); err != nil {
		t.Fatal(err)
	}
	if err := p.PenDown(); err != nil {
		t.Fatal(err)
	}
	if err := p.PenUp(); err != nil {
		t.Fatal(err)
	}
	if err := p.PenUp(); err != nil {
		t.Fatal(err)
	}
	// z motor moved exactly once each way.
	trace := p.ctrl.Trace()
	zMoves := 0
	for _, c := range trace {
		if c.Device == "motor:z" {
			zMoves++
		}
	}
	if zMoves != 2 {
		t.Errorf("z moves = %d, want 2", zMoves)
	}
}
