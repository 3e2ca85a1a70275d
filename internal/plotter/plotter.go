// Package plotter is the paper's prototype application (§4.3, Fig. 4): a
// robot acting as the head of a printer, moving a marking pen across three
// dimensions, one motor per axis. The overall movement is determined by a
// drawing program that talks to the exported drawing interface; the plotter
// itself contains no code beyond drawing — monitoring, control, replication
// and the rest arrive as MIDAS extensions.
package plotter

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/lvm"
	"repro/internal/robot"
	"repro/internal/svc"
	"repro/internal/weave"
)

// ServiceName is the exported drawing interface's service name.
const ServiceName = "Plotter"

// Canvas records where the pen marked the paper; it lets tests and examples
// verify drawing, replication and movement-control behaviour.
type Canvas struct {
	mu     sync.Mutex
	w, h   int
	marked map[[2]int]bool
}

// NewCanvas returns a w×h canvas.
func NewCanvas(w, h int) *Canvas {
	return &Canvas{w: w, h: h, marked: make(map[[2]int]bool)}
}

// Mark inks the cell at (x, y) when it lies on the canvas.
func (c *Canvas) Mark(x, y int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if x >= 0 && x < c.w && y >= 0 && y < c.h {
		c.marked[[2]int{x, y}] = true
	}
}

// Count returns the number of inked cells.
func (c *Canvas) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.marked)
}

// Render draws the canvas as ASCII art ('#' inked, '.' blank).
func (c *Canvas) Render() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	for y := 0; y < c.h; y++ {
		for x := 0; x < c.w; x++ {
			if c.marked[[2]int{x, y}] {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Plotter drives three motors (x, y and z for the pen) over a canvas.
type Plotter struct {
	ctrl   *robot.Controller
	canvas *Canvas
	mx     *robot.Motor
	my     *robot.Motor
	mz     *robot.Motor

	mu      sync.Mutex
	penDown bool
}

// New builds a plotter whose motors are woven through weaver.
func New(weaver *weave.Weaver, canvas *Canvas) (*Plotter, error) {
	ctrl := robot.NewController(weaver, nil)
	mx, err := ctrl.AddMotor("x")
	if err != nil {
		return nil, err
	}
	my, err := ctrl.AddMotor("y")
	if err != nil {
		return nil, err
	}
	mz, err := ctrl.AddMotor("z")
	if err != nil {
		return nil, err
	}
	return &Plotter{ctrl: ctrl, canvas: canvas, mx: mx, my: my, mz: mz}, nil
}

// Position returns the pen's (x, y) position.
func (p *Plotter) Position() (int64, int64) {
	return p.mx.Position(), p.my.Position()
}

// PenDown lowers the pen (motor z to -1), inking the current cell.
func (p *Plotter) PenDown() error {
	p.mu.Lock()
	down := p.penDown
	p.mu.Unlock()
	if down {
		return nil
	}
	if err := p.mz.Rotate(-1); err != nil {
		return err
	}
	p.mu.Lock()
	p.penDown = true
	p.mu.Unlock()
	p.ink()
	return nil
}

// PenUp raises the pen.
func (p *Plotter) PenUp() error {
	p.mu.Lock()
	down := p.penDown
	p.mu.Unlock()
	if !down {
		return nil
	}
	if err := p.mz.Rotate(1); err != nil {
		return err
	}
	p.mu.Lock()
	p.penDown = false
	p.mu.Unlock()
	return nil
}

// MoveTo moves the head to (x, y) one unit step at a time, inking along the
// way while the pen is down. An extension veto stops the movement at the
// offending step.
func (p *Plotter) MoveTo(x, y int64) error {
	for p.mx.Position() != x {
		step := int64(1)
		if p.mx.Position() > x {
			step = -1
		}
		if err := p.mx.Rotate(step); err != nil {
			return fmt.Errorf("plotter: x axis: %w", err)
		}
		p.ink()
	}
	for p.my.Position() != y {
		step := int64(1)
		if p.my.Position() > y {
			step = -1
		}
		if err := p.my.Rotate(step); err != nil {
			return fmt.Errorf("plotter: y axis: %w", err)
		}
		p.ink()
	}
	return nil
}

// Line draws a segment from the current position to (x, y) with the pen
// down, restoring the pen state afterwards.
func (p *Plotter) Line(x, y int64) error {
	if err := p.PenDown(); err != nil {
		return err
	}
	if err := p.MoveTo(x, y); err != nil {
		return err
	}
	return p.PenUp()
}

func (p *Plotter) ink() {
	p.mu.Lock()
	down := p.penDown
	p.mu.Unlock()
	if down && p.canvas != nil {
		p.canvas.Mark(int(p.mx.Position()), int(p.my.Position()))
	}
}

// RegisterService exports the drawing interface on reg, so drawing programs
// (and replication extensions) can drive the plotter remotely: moveTo(x, y),
// penDown(), penUp(), line(x, y), position() and rotate(axis-as-method) for
// raw motor access.
func (p *Plotter) RegisterService(reg *svc.Registry) {
	reg.Register(ServiceName, "moveTo", []string{"int", "int"}, "void", func(args []lvm.Value) (lvm.Value, error) {
		return lvm.Nil(), p.MoveTo(args[0].AsInt(), args[1].AsInt())
	})
	reg.Register(ServiceName, "line", []string{"int", "int"}, "void", func(args []lvm.Value) (lvm.Value, error) {
		return lvm.Nil(), p.Line(args[0].AsInt(), args[1].AsInt())
	})
	reg.Register(ServiceName, "penDown", nil, "void", func([]lvm.Value) (lvm.Value, error) {
		return lvm.Nil(), p.PenDown()
	})
	reg.Register(ServiceName, "penUp", nil, "void", func([]lvm.Value) (lvm.Value, error) {
		return lvm.Nil(), p.PenUp()
	})
	reg.Register(ServiceName, "position", nil, "int", func([]lvm.Value) (lvm.Value, error) {
		x, y := p.Position()
		return lvm.Str(fmt.Sprintf("%d,%d", x, y)), nil
	})
	// Raw single-axis rotation, used by the replication extension to mirror
	// movements onto an identical robot.
	reg.Register(ServiceName, "rotate", []string{"int"}, "void", func(args []lvm.Value) (lvm.Value, error) {
		return lvm.Nil(), p.mx.Rotate(args[0].AsInt())
	})
}

// Replay re-executes a recorded movement sequence (device, action, value)
// against this plotter — the paper's simulation application (§4.5): replay a
// part of the sequence of movements to reproduce a failure.
func (p *Plotter) Replay(cmds []ReplayCommand) error {
	for _, c := range cmds {
		var m *robot.Motor
		switch c.Device {
		case "motor:x", "Motor:x":
			m = p.mx
		case "motor:y", "Motor:y":
			m = p.my
		case "motor:z", "Motor:z":
			m = p.mz
		default:
			continue // foreign device records are skipped
		}
		if c.Action != "rotate" {
			continue
		}
		// Track pen state through z-axis movements.
		if m == p.mz {
			if c.Value < 0 {
				if err := p.PenDown(); err != nil {
					return err
				}
			} else {
				if err := p.PenUp(); err != nil {
					return err
				}
			}
			continue
		}
		if err := m.Rotate(c.Value); err != nil {
			return err
		}
		p.ink()
	}
	return nil
}

// ReplayCommand is one recorded movement (a store.Record projection, kept
// free of the store dependency).
type ReplayCommand struct {
	Device string
	Action string
	Value  int64
}
