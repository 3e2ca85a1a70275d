// Package task is the robot application layer of Fig. 3a: small programs
// (tasks) defining an objective for the robot, broken into hardware macros
// sent to the device layer; sensor events interrupt tasks; a direct mode
// allows human control of the hardware; and an overriding layer replaces a
// running task without direct mode.
package task

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/robot"
)

// Decision is a task's response to a sensor interrupt.
type Decision uint8

// Interrupt decisions.
const (
	// Continue resumes the interrupted macro sequence.
	Continue Decision = iota + 1
	// Abort stops the current task.
	Abort
)

// Task is a basic program deciding what the robot does: a named sequence of
// hardware macros.
type Task struct {
	Name   string
	Macros []robot.Macro
	// OnEvent decides how to react to a sensor interrupt; nil aborts.
	OnEvent func(ev robot.SensorEvent) Decision
}

// Errors returned by the runner.
var (
	// ErrAborted is returned when a task was aborted by an interrupt
	// decision or an override.
	ErrAborted = errors.New("task: aborted")
	// ErrBusy is returned when direct mode is used while a task runs.
	ErrBusy = errors.New("task: hardware busy, task running")
)

// Runner executes tasks on one controller.
type Runner struct {
	ctrl *robot.Controller

	mu       sync.Mutex
	running  bool
	override *Task
	history  []string
}

// NewRunner returns a runner over ctrl.
func NewRunner(ctrl *robot.Controller) *Runner {
	return &Runner{ctrl: ctrl}
}

// Run executes t to completion, handling sensor interrupts through the
// task's OnEvent decision. Returns ErrAborted when interrupted fatally or
// overridden; an extension veto surfaces as the weaver's error.
func (r *Runner) Run(t *Task) error {
	r.mu.Lock()
	if r.running {
		r.mu.Unlock()
		return ErrBusy
	}
	r.running = true
	r.history = append(r.history, t.Name)
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.running = false
		r.mu.Unlock()
	}()

	for i := 0; i < len(t.Macros); i++ {
		// An overriding task replaces the rest of this one (§4.1's
		// overriding layer).
		r.mu.Lock()
		ov := r.override
		r.override = nil
		r.mu.Unlock()
		if ov != nil {
			r.mu.Lock()
			r.history = append(r.history, "override:"+ov.Name)
			r.mu.Unlock()
			t = ov
			i = -1 // restart loop over the override's macros
			continue
		}

		err := r.ctrl.Execute(t.Macros[i])
		if err == nil {
			continue
		}
		if !errors.Is(err, robot.ErrFrozen) {
			return fmt.Errorf("task %s macro %d: %w", t.Name, i, err)
		}
		// Sensor interrupt: collect the event and ask the task.
		var ev robot.SensorEvent
		select {
		case ev = <-r.ctrl.Events():
		default:
		}
		decision := Abort
		if t.OnEvent != nil {
			decision = t.OnEvent(ev)
		}
		r.ctrl.Resume()
		if decision == Abort {
			return fmt.Errorf("%w: task %s at macro %d (sensor %s)", ErrAborted, t.Name, i, ev.Sensor)
		}
		i-- // retry the interrupted macro
	}
	return nil
}

// Override schedules t to replace the currently running task at its next
// macro boundary. When no task is running it is an error (use Run).
func (r *Runner) Override(t *Task) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.running {
		return errors.New("task: nothing to override")
	}
	r.override = t
	return nil
}

// Direct executes a single macro in direct mode — the interface for direct
// human connection to the hardware. It refuses while a task is running.
func (r *Runner) Direct(m robot.Macro) error {
	r.mu.Lock()
	if r.running {
		r.mu.Unlock()
		return ErrBusy
	}
	r.mu.Unlock()
	if r.ctrl.Frozen() {
		r.ctrl.Resume()
	}
	return r.ctrl.Execute(m)
}

// History lists executed task names (including "override:" entries).
func (r *Runner) History() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.history))
	copy(out, r.history)
	return out
}
