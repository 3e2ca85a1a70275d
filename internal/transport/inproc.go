package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
)

// fabricMetrics is the RPC accounting shared by the in-proc and TCP fabrics;
// all fields are nil-safe no-ops when un-instrumented.
type fabricMetrics struct {
	calls    *metrics.Counter
	errors   *metrics.Counter
	timeouts *metrics.Counter
	losses   *metrics.Counter
	bytesOut *metrics.Counter
	bytesIn  *metrics.Counter
	callNs   *metrics.Histogram
}

func newFabricMetrics(reg *metrics.Registry) *fabricMetrics {
	return &fabricMetrics{
		calls:    reg.Counter("transport.calls"),
		errors:   reg.Counter("transport.call_errors"),
		timeouts: reg.Counter("transport.timeouts"),
		losses:   reg.Counter("transport.injected_losses"),
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
// simulator's range oracle) decides which node pairs can currently talk, and
// SetLoss drops calls deterministically. Delivery is instant: simnet is the
// fabric that models link latency.
type InProc struct {
	mu       sync.RWMutex
	nodes    map[string]Handler
	linked   func(from, to string) bool
	lossNum  uint64 // drop lossNum out of every lossDen calls
	lossDen  uint64
	lossTick uint64
	m        *fabricMetrics
}

// Instrument records every call through the fabric (count, errors, timeouts,
// payload bytes, latency) and each deterministically injected loss in reg. A
// nil reg is a no-op.
func (n *InProc) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.m = newFabricMetrics(reg)
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
}

// SetLoss drops num out of every den calls deterministically (evenly
// spread), modelling a lossy wireless link. SetLoss(0, 0) disables loss.
func (n *InProc) SetLoss(num, den uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lossNum, n.lossDen, n.lossTick = num, den, 0
}

// dropCall reports whether the current call falls into a loss slot. Call
// takes it, and with it the write lock, only while loss is on.
func (n *InProc) dropCall() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.lossDen == 0 || n.lossNum == 0 {
		return false
	}
	tick := n.lossTick
	n.lossTick++
	// Evenly spread: drop when the scaled counter crosses a unit boundary.
	drop := (tick*n.lossNum)/n.lossDen != ((tick+1)*n.lossNum)/n.lossDen
	if drop && n.m != nil {
		n.m.losses.Inc()
	}
	return drop
}

// Serve attaches h at addr. The returned stop function detaches it.
func (n *InProc) Serve(addr string, h Handler) (func(), error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[addr]; dup {
		return nil, fmt.Errorf("transport: inproc address %q in use", addr)
	}
	n.nodes[addr] = h
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		delete(n.nodes, addr)
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
	peer any // from, boxed once for withBoxedPeer
}

// Call implements Caller.
func (c *inprocCaller) Call(ctx context.Context, to, method string, req, resp any) (err error) {
	c.net.mu.RLock()
	h, ok := c.net.nodes[to]
	linked := c.net.linked
	fm := c.net.m
	lossy := c.net.lossNum != 0 && c.net.lossDen != 0
	c.net.mu.RUnlock()
	if fm != nil {
		fm.calls.Inc()
		start := time.Now() //lint:allow clockcheck (real RPC latency metric)
		defer func() { fm.finishCall(start, err) }()
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnreachable, to)
	}
	if linked != nil && c.from != to && !linked(c.from, to) {
		return fmt.Errorf("%w: %s -> %s (out of range)", ErrUnreachable, c.from, to)
	}
	if lossy && c.net.dropCall() {
		return fmt.Errorf("%w: %s -> %s (message lost)", ErrUnreachable, c.from, to)
	}
	body, _, err := EncodeBody(req, true)
	if err != nil {
		return err
	}
	if fm != nil {
		fm.bytesOut.Add(uint64(len(body)))
	}
	out, herr := h.Handle(withBoxedPeer(ctx, c.peer), method, body)
	if herr != nil {
		return NewRemoteError(method, herr.Error())
	}
	if fm != nil {
		fm.bytesIn.Add(uint64(len(out)))
	}
	if resp == nil {
		return nil
	}
	return Decode(out, resp)
}
