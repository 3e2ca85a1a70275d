package transport

import (
	"context"
	"sync"
	"time"
)

// CallDeadline is a context that bounds one outbound call by a deadline, like
// context.WithTimeout, but arms its timer lazily. Most calls never wait on
// Done: the in-process fabric returns before any deadline could fire, so a
// timer per call is pure overhead there. CallDeadline creates one only when
// somebody asks for Done, and keeps the rest of the context contract:
//
//   - Deadline reports the earlier of the parent's deadline and its own.
//   - Done closes at the deadline, on parent cancellation or on Cancel, once
//     it has been requested.
//   - Err reports context.DeadlineExceeded after the deadline even if Done
//     was never requested, and the parent's error once the parent is done.
//   - Cancel releases the timer, if one was armed.
//
// Once armed it delegates to a context.WithDeadline child of the parent, so
// contexts derived from an armed CallDeadline register with it directly, with
// no watcher goroutine.
type CallDeadline struct {
	parent   context.Context
	deadline time.Time

	mu      sync.Mutex
	armed   context.Context // the WithDeadline child, made by the first Done
	release context.CancelFunc
	err     error // the outcome observed or set before Done armed the timer
}

// WithCallDeadline returns a context bounded by timeout from now. Call its
// Cancel once the call returns.
func WithCallDeadline(parent context.Context, timeout time.Duration) *CallDeadline {
	d := time.Now().Add(timeout) //lint:allow clockcheck (real deadline of an RPC)
	if pd, ok := parent.Deadline(); ok && pd.Before(d) {
		d = pd
	}
	return &CallDeadline{parent: parent, deadline: d}
}

// Deadline implements context.Context.
func (c *CallDeadline) Deadline() (time.Time, bool) { return c.deadline, true }

// Done implements context.Context. The first call arms the timer.
func (c *CallDeadline) Done() <-chan struct{} {
	return c.arm().Done()
}

// arm returns the WithDeadline child, creating it on first use.
func (c *CallDeadline) arm() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		c.armed, c.release = context.WithDeadline(c.parent, c.deadline)
		if c.err == context.Canceled {
			c.release()
		}
	}
	return c.armed
}

// Err implements context.Context.
func (c *CallDeadline) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed != nil {
		return c.armed.Err()
	}
	if c.err == nil {
		if err := c.parent.Err(); err != nil {
			c.err = err
		} else if !time.Now().Before(c.deadline) { //lint:allow clockcheck (real deadline of an RPC)
			c.err = context.DeadlineExceeded
		}
	}
	return c.err
}

// Value implements context.Context. Once armed it answers through the
// WithDeadline child, which is what lets context.WithCancel children of c
// find c's cancellation without a goroutine.
func (c *CallDeadline) Value(key any) any {
	c.mu.Lock()
	armed := c.armed
	c.mu.Unlock()
	if armed != nil {
		return armed.Value(key)
	}
	return c.parent.Value(key)
}

// Cancel ends the call's context, releasing the timer if Done armed one. It
// is idempotent.
func (c *CallDeadline) Cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.release != nil {
		c.release()
	} else if c.err == nil {
		c.err = context.Canceled
	}
}
