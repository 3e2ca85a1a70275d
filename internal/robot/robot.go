// Package robot models the lowest layer of Fig. 3a: software models and
// macros for operating the robot hardware (motors and sensors), as provided
// by the LeJOS-based RCX controller in the paper's testbed. Every motor
// operation and every position change flows through weaver join points, so
// MIDAS extensions can monitor, veto, replicate or rescale hardware activity
// without the robot code knowing.
package robot

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/aop"
	"repro/internal/clock"
	"repro/internal/lvm"
	"repro/internal/weave"
)

// Command is one executed hardware action, kept in the controller trace.
type Command struct {
	Device   string
	Action   string
	Value    int64
	AtMillis int64
}

// Motor is one actuator. Its class/field names ("Motor", "pos") are the
// anchor points for crosscut patterns such as Motor.*(..) and Motor.pos.
type Motor struct {
	id   string
	obj  *lvm.Object
	ctrl *Controller

	rotateHooks *weave.MethodHooks
	posSite     *weave.Site

	mu  sync.Mutex
	pos int64
}

// Position returns the accumulated rotation.
func (m *Motor) Position() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pos
}

// Rotate turns the motor by delta degrees, passing through the method-entry
// and method-exit join points of Motor.rotate and the field-set join point
// of Motor.pos. Extensions may veto (error returned) or rescale the delta.
func (m *Motor) Rotate(delta int64) error {
	_, err := m.rotateHooks.Invoke(m.obj, []lvm.Value{lvm.Int(delta)}, func(args []lvm.Value) (lvm.Value, error) {
		d := args[0].AsInt()
		if err := m.setPos(m.Position() + d); err != nil {
			return lvm.Nil(), err
		}
		m.ctrl.record(m, "rotate", d)
		return lvm.Int(m.Position()), nil
	})
	return err
}

// setPos writes the position through the Motor.pos field-set join point.
func (m *Motor) setPos(v int64) error {
	if m.posSite.Active() {
		ctx := weave.GetContext()
		defer weave.PutContext(ctx)
		ctx.Kind = aop.FieldSet
		ctx.Sig = aop.Signature{Class: "Motor"}
		ctx.Field = "pos"
		ctx.Self = m.obj
		ctx.Args = append(ctx.Args[:0], lvm.Int(v))
		if err := m.posSite.Dispatch(ctx); err != nil {
			return err
		}
		v = ctx.Args[0].AsInt()
	}
	m.mu.Lock()
	m.pos = v
	m.mu.Unlock()
	m.obj.SetFieldByName("pos", lvm.Int(v))
	return nil
}

// SensorEvent is delivered when a sensor crosses its trigger threshold.
type SensorEvent struct {
	Sensor   string
	Value    int64
	AtMillis int64
}

// Sensor is one input device; the simulation (or tests) feed it values, and
// values at or above the trigger threshold interrupt the running task.
type Sensor struct {
	id      string
	trigger int64
	ctrl    *Controller

	mu    sync.Mutex
	value int64
}

// Read returns the current value.
func (s *Sensor) Read() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.value
}

// Feed injects a new reading (the simulated physical world). Crossing the
// trigger threshold freezes the hardware and emits a SensorEvent, mirroring
// "the hardware completely freezes its activity and notifies the robot
// application layer" (§4.1).
func (s *Sensor) Feed(v int64) {
	s.mu.Lock()
	prev := s.value
	s.value = v
	trigger := s.trigger
	s.mu.Unlock()
	if prev < trigger && v >= trigger {
		s.ctrl.interrupt(SensorEvent{Sensor: s.id, Value: v, AtMillis: s.ctrl.clk.Now().UnixMilli()})
	}
}

// Controller is the RCX-like device controller: it owns motors and sensors,
// offers a homogeneous view of the hardware, executes hardware macros and
// freezes on sensor interrupts.
type Controller struct {
	clk    clock.Clock
	weaver *weave.Weaver

	mu      sync.Mutex
	motors  map[string]*Motor
	sensors map[string]*Sensor
	trace   []Command
	frozen  bool
	events  chan SensorEvent

	motorClass  *lvm.Class
	rotateHooks *weave.MethodHooks
	posSite     *weave.Site
}

// NewController builds a controller whose devices are woven through weaver.
func NewController(weaver *weave.Weaver, clk clock.Clock) *Controller {
	if clk == nil {
		clk = clock.Real{}
	}
	motorClass := lvm.NewClass("Motor")
	motorClass.AddField("id")
	motorClass.AddField("pos")
	c := &Controller{
		clk:        clk,
		weaver:     weaver,
		motors:     make(map[string]*Motor),
		sensors:    make(map[string]*Sensor),
		events:     make(chan SensorEvent, 16),
		motorClass: motorClass,
		rotateHooks: weaver.HookMethod(aop.Signature{
			Class: "Motor", Method: "rotate", Return: "int", Params: []string{"int"},
		}),
		posSite: weaver.RegisterFieldSite(aop.FieldSet, "Motor", "pos"),
	}
	return c
}

// AddMotor registers a motor with the given identity.
func (c *Controller) AddMotor(id string) (*Motor, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.motors[id]; dup {
		return nil, fmt.Errorf("robot: motor %q exists", id)
	}
	obj := c.motorClass.New()
	obj.SetFieldByName("id", lvm.Str(id))
	m := &Motor{
		id:          id,
		obj:         obj,
		ctrl:        c,
		rotateHooks: c.rotateHooks,
		posSite:     c.posSite,
	}
	c.motors[id] = m
	return m, nil
}

// AddSensor registers a sensor that interrupts at or above trigger.
func (c *Controller) AddSensor(id string, trigger int64) (*Sensor, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.sensors[id]; dup {
		return nil, fmt.Errorf("robot: sensor %q exists", id)
	}
	s := &Sensor{id: id, trigger: trigger, ctrl: c}
	c.sensors[id] = s
	return s, nil
}

// Macro is one hardware macro, e.g. "turn motor x by 30 degrees".
type Macro struct {
	Motor string
	Delta int64
	Pause time.Duration // simulated execution time
}

// Execute runs one hardware macro. It fails when the hardware is frozen by a
// sensor interrupt or when an extension vetoes the movement.
func (c *Controller) Execute(m Macro) error {
	c.mu.Lock()
	frozen := c.frozen
	motor := c.motors[m.Motor]
	c.mu.Unlock()
	if frozen {
		return ErrFrozen
	}
	if motor == nil {
		return fmt.Errorf("robot: no motor %q", m.Motor)
	}
	if err := motor.Rotate(m.Delta); err != nil {
		return err
	}
	if m.Pause > 0 {
		<-c.clk.After(m.Pause)
	}
	return nil
}

// ErrFrozen indicates a sensor interrupt froze the hardware.
var ErrFrozen = errFrozen{}

type errFrozen struct{}

func (errFrozen) Error() string { return "robot: hardware frozen by sensor event" }

// Frozen reports whether the hardware is frozen.
func (c *Controller) Frozen() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frozen
}

// Resume unfreezes the hardware after an interrupt was handled.
func (c *Controller) Resume() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frozen = false
}

// Events exposes the sensor interrupt channel for the task layer.
func (c *Controller) Events() <-chan SensorEvent { return c.events }

// Trace returns a copy of the executed command history.
func (c *Controller) Trace() []Command {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Command, len(c.trace))
	copy(out, c.trace)
	return out
}

func (c *Controller) record(m *Motor, action string, value int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trace = append(c.trace, Command{
		Device:   "motor:" + m.id,
		Action:   action,
		Value:    value,
		AtMillis: c.clk.Now().UnixMilli(),
	})
}

func (c *Controller) interrupt(ev SensorEvent) {
	c.mu.Lock()
	c.frozen = true
	c.mu.Unlock()
	select {
	case c.events <- ev:
	default:
		// Event queue full: the freeze still holds; the task layer will
		// observe it on its next macro.
	}
}
