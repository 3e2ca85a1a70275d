package transport

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// fabricMetrics is the RPC accounting shared by the in-proc and TCP fabrics;
// all fields are nil-safe no-ops when un-instrumented.
type fabricMetrics struct {
	calls    *metrics.Counter
	errors   *metrics.Counter
	timeouts *metrics.Counter
	bytesOut *metrics.Counter
	bytesIn  *metrics.Counter
	callNs   *metrics.Histogram
}

func newFabricMetrics(reg *metrics.Registry) *fabricMetrics {
	return &fabricMetrics{
		calls:    reg.Counter("transport.calls"),
		errors:   reg.Counter("transport.call_errors"),
		timeouts: reg.Counter("transport.timeouts"),
		bytesOut: reg.Counter("transport.bytes_sent"),
		bytesIn:  reg.Counter("transport.bytes_received"),
		callNs:   reg.Histogram("transport.call_ns", nil),
	}
}

// finishCall records the outcome of one RPC on the caller side.
func (fm *fabricMetrics) finishCall(start time.Time, err error) {
	if fm == nil {
		return
	}
	fm.callNs.Since(start)
	if err != nil {
		fm.errors.Inc()
		var ne net.Error
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) ||
			(errors.As(err, &ne) && ne.Timeout()) {
			fm.timeouts.Inc()
		}
	}
}

// InProc is an in-process RPC fabric. It simulates the wireless network of
// the paper's testbed: a LinkFunc (typically wired to the mobility
// simulator's range oracle) decides which node pairs can currently talk.
// Delivery is instant and lossless: simnet is the fabric that models link
// latency and loss.
//
// Calls read the fabric's state from an immutable snapshot behind an atomic
// pointer, so they take no lock. Every change (Serve, a stop, SetLinkFunc,
// Instrument) happens under the mutex and drops the snapshot; the
// next call publishes a fresh copy. A fleet served node by node before its
// first call is copied once, not once per node.
type InProc struct {
	mu     sync.Mutex
	nodes  map[string]Handler
	linked func(from, to string) bool
	m      *fabricMetrics

	snap atomic.Pointer[inprocSnap] // nil: changed since the last call
}

// inprocSnap is what a call reads of the fabric.
type inprocSnap struct {
	nodes  map[string]Handler // a copy, never written once published
	linked func(from, to string) bool
	m      *fabricMetrics
}

// state returns the current snapshot, publishing one if a change dropped it.
func (n *InProc) state() *inprocSnap {
	if s := n.snap.Load(); s != nil {
		return s
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if s := n.snap.Load(); s != nil {
		return s
	}
	s := &inprocSnap{
		nodes:  maps.Clone(n.nodes),
		linked: n.linked,
		m:      n.m,
	}
	n.snap.Store(s)
	return s
}

// Instrument records every call through the fabric (count, errors, timeouts,
// payload bytes, latency) in reg. A nil reg is a no-op.
//
//lint:allow shipped (test seam: metrics tests count RPCs and wire bytes on the in-process fabric)
func (n *InProc) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.m = newFabricMetrics(reg)
	n.snap.Store(nil)
}

// NewInProc returns a fully connected, lossless fabric.
func NewInProc() *InProc {
	return &InProc{nodes: make(map[string]Handler)}
}

// SetLinkFunc installs the connectivity oracle. A nil oracle means fully
// connected. Local delivery (from == to) is always allowed.
func (n *InProc) SetLinkFunc(f func(from, to string) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linked = f
	n.snap.Store(nil)
}

// Serve attaches h at addr. The returned stop function detaches it.
func (n *InProc) Serve(addr string, h Handler) (func(), error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[addr]; dup {
		return nil, fmt.Errorf("transport: inproc address %q in use", addr)
	}
	n.nodes[addr] = h
	n.snap.Store(nil)
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		delete(n.nodes, addr)
		n.snap.Store(nil)
	}, nil
}

// Node returns a Caller whose calls originate from addr, so the connectivity
// oracle sees the correct link endpoints.
func (n *InProc) Node(addr string) Caller {
	return &inprocCaller{net: n, from: addr, peer: boxPeer(addr)}
}

type inprocCaller struct {
	net  *InProc
	from string
	peer any // from, boxed once for the peer stamp
}

// Call implements Caller. The handler gets the request body for good. A call
// made under a CallDeadline the fabric has not served yet is delivered under
// that same context, with the peer stamped in it, and a response body
// Register left there is recycled once decoded; any other context is
// wrapped with the peer stamp.
func (c *inprocCaller) Call(ctx context.Context, to, method string, req, resp any) (err error) {
	st := c.net.state()
	h, ok := st.nodes[to]
	if fm := st.m; fm != nil {
		fm.calls.Inc()
		start := time.Now() //lint:allow clockcheck (real RPC latency metric)
		defer func() { fm.finishCall(start, err) }()
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	if st.linked != nil && c.from != to && !st.linked(c.from, to) {
		return fmt.Errorf("%w: %s -> %s (out of range)", ErrUnreachable, c.from, to)
	}
	body, _, err := EncodeBody(req, true)
	if err != nil {
		return err
	}
	if st.m != nil {
		st.m.bytesOut.Add(uint64(len(body)))
	}
	hctx := ctx
	cd, own := ctx.(*CallDeadline)
	own = own && cd.serve(c.peer)
	if !own {
		hctx = withBoxedPeer(ctx, c.peer)
	}
	out, herr := h.Handle(hctx, method, body)
	if own {
		defer cd.served(out)
	}
	if herr != nil {
		return NewRemoteError(method, herr.Error())
	}
	if st.m != nil {
		st.m.bytesIn.Add(uint64(len(out)))
	}
	if resp == nil {
		return nil
	}
	return Decode(out, resp)
}
