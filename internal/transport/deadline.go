package transport

import (
	"context"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// CallDeadline is the call-scoped context of one RPC. It bounds the call by a
// deadline, like context.WithTimeout, but arms its timer lazily. Most calls
// never wait on Done: the in-process fabric returns before any deadline could
// fire, so a timer per call is pure overhead there. CallDeadline creates one
// only when somebody asks for Done, and keeps the rest of the context
// contract:
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
//
// It also holds inline what a call would otherwise wrap its context in, one
// allocation each: the span context the call runs under (WithCallSpan), and,
// on the serving side of a fabric that delivers the context itself (in-proc,
// and the TCP server's per-request context), the calling peer's address
// that Peer reports. Such a fabric serves one call under a CallDeadline at
// most once; a context reused for a second call is wrapped as usual. While
// it serves, the context also carries the response body Register encoded
// into a pooled buffer back to the fabric, which recycles the buffer once it
// has read it.
type CallDeadline struct {
	parent   context.Context
	deadline time.Time         // zero: none of its own (a TCP request without budget)
	sc       trace.SpanContext // answered for trace.FromContext when valid

	mu      sync.Mutex
	armed   context.Context // the WithDeadline child, made by the first Done
	release context.CancelFunc
	err     error // the outcome observed or set before Done armed the timer
	hop     hop
	peer    any           // the caller's address, stamped when the hop starts
	body    *wire.Encoder // the response body Register left for the fabric
}

// hop is where a CallDeadline stands in serving its one call.
type hop uint8

const (
	hopUnserved hop = iota // no fabric has delivered the call yet
	hopServing             // delivered: Handle is running or its body is being read
	hopServed              // over: the context only carries values now
)

// WithCallDeadline returns a context bounded by timeout from now. Call its
// Cancel once the call returns.
func WithCallDeadline(parent context.Context, timeout time.Duration) *CallDeadline {
	return WithCallSpan(parent, timeout, trace.SpanContext{})
}

// WithCallSpan is WithCallDeadline for a call that runs under sc: the context
// answers trace.FromContext with sc (when valid) without a second wrapper.
func WithCallSpan(parent context.Context, timeout time.Duration, sc trace.SpanContext) *CallDeadline {
	d := time.Now().Add(timeout) //lint:allow clockcheck (real deadline of an RPC)
	if pd, ok := parent.Deadline(); ok && pd.Before(d) {
		d = pd
	}
	return &CallDeadline{parent: parent, deadline: d, sc: sc}
}

// serverCall is the context a TCP server hands one request's handler: the
// caller's span context and address, and a deadline budget from now when the
// caller sent one (zero: none).
func serverCall(sc trace.SpanContext, peer string, budget time.Duration) *CallDeadline {
	c := &CallDeadline{parent: context.Background(), sc: sc, hop: hopServing, peer: boxPeer(peer)}
	if budget > 0 {
		c.deadline = time.Now().Add(budget) //lint:allow clockcheck (real deadline of an RPC)
	}
	return c
}

// Deadline implements context.Context.
func (c *CallDeadline) Deadline() (time.Time, bool) {
	if c.deadline.IsZero() {
		return c.parent.Deadline()
	}
	return c.deadline, true
}

// Done implements context.Context. The first call arms the timer.
func (c *CallDeadline) Done() <-chan struct{} {
	return c.arm().Done()
}

// arm returns the WithDeadline child, creating it on first use.
func (c *CallDeadline) arm() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		if c.deadline.IsZero() {
			c.armed, c.release = context.WithCancel(c.parent)
		} else {
			c.armed, c.release = context.WithDeadline(c.parent, c.deadline)
		}
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
		} else if !c.deadline.IsZero() && !time.Now().Before(c.deadline) { //lint:allow clockcheck (real deadline of an RPC)
			c.err = context.DeadlineExceeded
		}
	}
	return c.err
}

// Value implements context.Context. It answers the peer and the span context
// it holds; anything else, once armed, through the WithDeadline child, which
// is what lets context.WithCancel children of c find c's cancellation
// without a goroutine.
func (c *CallDeadline) Value(key any) any {
	c.mu.Lock()
	armed, peer := c.armed, c.peer
	c.mu.Unlock()
	if peer != nil && key == (peerKey{}) {
		return peer
	}
	if c.sc.Valid() {
		if v, ok := trace.ContextValue(key, &c.sc); ok {
			return v
		}
	}
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

// serve starts delivering a call under c with peer as the caller, reporting
// false if c already carried a call: the fabric then stamps the peer with a
// wrapper of its own, and Register leaves no body with c.
func (c *CallDeadline) serve(peer any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hop != hopUnserved {
		return false
	}
	c.hop, c.peer = hopServing, peer
	return true
}

// keepBody leaves e, holding a response body Register encoded, with the
// fabric serving c, reporting false when no fabric serves c or a body is
// already left. The fabric recycles e in served.
func (c *CallDeadline) keepBody(e *wire.Encoder) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hop != hopServing || c.body != nil {
		return false
	}
	c.body = e
	return true
}

// served ends the call c carried. out is the response body the handler
// returned, which the fabric has finished reading: if it is the body
// Register left, its encoder goes back to the pool. A body that is not out
// is dropped rather than recycled, because whoever replaced it may hold it.
func (c *CallDeadline) served(out []byte) {
	c.mu.Lock()
	e := c.body
	c.body, c.hop = nil, hopServed
	c.mu.Unlock()
	if e != nil && sameBytes(e.Data(), out) {
		wire.PutEncoder(e)
	}
}

// sameBytes reports whether a and b are the same non-empty slice of memory.
func sameBytes(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}
