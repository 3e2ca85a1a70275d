// Package simnet is a deterministic, seeded network simulator for testing
// the platform under the hostile conditions of the paper's testbed: nodes
// roam out of coverage, wireless links lose, delay, duplicate and reorder
// messages, and bases or nodes crash and restart. It is a fault layer over a
// private transport.InProc, which delivers every call, so every distributed
// component (bases, receivers, lookup services, event dispatchers) runs over
// it unmodified, through the same delivery code as on the in-proc fabric.
//
// All randomness comes from per-link RNGs derived from one seed, and all
// delays run on an injected clock (typically clock.Manual), so a scenario's
// fault schedule — which messages are lost, duplicated or delayed, and by
// how much — replays identically from the same seed.
package simnet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// LinkProfile describes the fault behaviour of one directed link.
type LinkProfile struct {
	// LatencyMin/LatencyMax bound the one-way delivery latency, sampled
	// uniformly per message. Zero means instantaneous delivery.
	LatencyMin, LatencyMax time.Duration
	// Loss is the probability a message is dropped in flight.
	Loss float64
	// Dup is the probability a request is delivered a second time (the
	// duplicate's response is discarded, as a retransmitted datagram's
	// would be).
	Dup float64
	// DupDelay postpones the duplicate delivery by that much simulated
	// time; zero re-delivers immediately, back to back. A delayed duplicate
	// is how an old message overtakes newer ones.
	DupDelay time.Duration
	// Reorder is the probability a message is held back an extra
	// ReorderDelay, letting later traffic overtake it.
	Reorder float64
	// ReorderDelay is the extra in-flight delay of a reordered message
	// (default LatencyMax).
	ReorderDelay time.Duration
}

type linkKey struct{ from, to string }

// link is the per-directed-pair simulation state. Each link owns its RNG so
// fault decisions depend only on the seed and the sequence of messages on
// that link, not on unrelated traffic.
type link struct {
	prof        *LinkProfile // nil = the net's default profile
	rng         *rand.Rand
	partitioned bool
}

// sendPlan is one message's fate, drawn up front so each link's RNG is
// consumed in a fixed order per message regardless of the outcome.
type sendPlan struct {
	lost      bool
	dup       bool
	dupDelay  time.Duration
	reordered bool
	latency   time.Duration
}

// plan draws a message's fate from the link's RNG, under the link's own
// profile or def when it has none. Callers serialise draws on one link.
func (l *link) plan(def *LinkProfile) sendPlan {
	p := l.prof
	if p == nil {
		p = def
	}
	var plan sendPlan
	// Fixed draw order: loss, dup, reorder, latency.
	plan.lost = l.rng.Float64() < p.Loss
	plan.dup = l.rng.Float64() < p.Dup
	plan.dupDelay = p.DupDelay
	plan.reordered = l.rng.Float64() < p.Reorder
	u := l.rng.Float64()
	plan.latency = p.LatencyMin
	if p.LatencyMax > p.LatencyMin {
		plan.latency += time.Duration(u * float64(p.LatencyMax-p.LatencyMin))
	}
	if plan.reordered {
		extra := p.ReorderDelay
		if extra <= 0 {
			extra = p.LatencyMax
		}
		plan.latency += extra
	}
	return plan
}

// netMetrics counts simulated network events; nil-safe until Instrument.
// Only counters (no wall-clock histograms), so snapshots of two replayed
// runs compare equal.
type netMetrics struct {
	calls          *metrics.Counter
	delivered      *metrics.Counter
	losses         *metrics.Counter
	dups           *metrics.Counter
	reorders       *metrics.Counter
	partitionDrops *metrics.Counter
	downDrops      *metrics.Counter
}

func newNetMetrics(reg *metrics.Registry) netMetrics {
	return netMetrics{
		calls:          reg.Counter("simnet.calls"),
		delivered:      reg.Counter("simnet.delivered"),
		losses:         reg.Counter("simnet.losses"),
		dups:           reg.Counter("simnet.dups"),
		reorders:       reg.Counter("simnet.reorders"),
		partitionDrops: reg.Counter("simnet.partition_drops"),
		downDrops:      reg.Counter("simnet.down_drops"),
	}
}

// faults applies drawn fates to messages on a clock: the send step Net and
// Chaos share.
type faults struct {
	clk   clock.Clock
	stop  chan struct{}        // closed by Net.Close; nil (never) for Chaos
	alive func(to string) bool // nil: every destination takes duplicates

	mu      sync.Mutex // guards Instrument's write of m, closed and the owner's links
	m       netMetrics
	closed  bool
	pending sync.WaitGroup // delayed duplicates not yet delivered
}

// Instrument records simulated traffic and injected faults in reg under the
// simnet.* names. A nil reg is a no-op.
func (f *faults) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m = newNetMetrics(reg)
}

// suffer applies a fate to a message short of delivering it: it counts a
// reorder, fails a lost message and waits out the latency.
func (f *faults) suffer(ctx context.Context, plan sendPlan, what, from, to string) error {
	if plan.reordered {
		f.m.reorders.Inc()
	}
	if plan.lost {
		f.m.losses.Inc()
		return fmt.Errorf("%w: %s -> %s (%s lost)", transport.ErrUnreachable, from, to, what)
	}
	if plan.latency <= 0 {
		return nil
	}
	select {
	case <-f.clk.After(plan.latency):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-f.stop:
		return fmt.Errorf("%w: simnet closed", transport.ErrUnreachable)
	}
}

// send carries a request whose fate is plan from → to, delivering it through
// c with the caller's own ctx, req and resp. A duplicated request reaches to
// again through c, carrying the bytes and the deadline budget the original
// did. reached reports whether the request got to the handler.
func (f *faults) send(ctx context.Context, c transport.Caller, plan sendPlan, from, to, method string, req, resp any) (reached bool, err error) {
	if err := f.suffer(ctx, plan, "message", from, to); err != nil {
		return false, err
	}
	var dup rawFields
	var budget time.Duration
	if plan.dup {
		dup = fieldsOf(req) // before delivery: callers reuse req once Call returns
		if d, ok := ctx.Deadline(); ok {
			budget = time.Until(d) //lint:allow clockcheck (real budget of an RPC)
		}
	}
	err = c.Call(ctx, to, method, req, resp)
	// A failure still got to the handler when the handler failed or its
	// response did not decode.
	if err != nil && !errors.As(err, new(*transport.RemoteError)) && !errors.Is(err, transport.ErrDecode) {
		return false, err
	}
	f.m.delivered.Inc()
	if dup != nil {
		f.redeliver(c, to, method, dup, budget, plan.dupDelay)
	}
	return true, err
}

// redeliver sends a duplicate through c, modelling a retransmitted datagram:
// immediately (back to back with the original) or after delay on the clock.
// Through c it keeps the original sender's identity, so it does not slip
// past per-peer admission control, and a budget > 0 bounds it as the
// original was bounded. Its response is discarded.
func (f *faults) redeliver(c transport.Caller, to, method string, dup rawFields, budget, delay time.Duration) {
	if delay > 0 {
		f.mu.Lock()
		defer f.mu.Unlock()
		if !f.closed {
			f.pending.Add(1)
			go func() {
				defer f.pending.Done()
				select {
				case <-f.clk.After(delay):
					f.redeliver(c, to, method, dup, budget, 0)
				case <-f.stop:
				}
			}()
		}
		return
	}
	if f.alive != nil && !f.alive(to) {
		return // crashed or wiped between original and duplicate
	}
	f.m.dups.Inc()
	ctx := context.Background()
	if budget > 0 {
		cd := transport.WithCallDeadline(ctx, budget)
		defer cd.Cancel()
		ctx = cd
	}
	_ = c.Call(ctx, to, method, dup, nil)
}

// rawFields is a request's encoded fields, framed again verbatim for each
// delivery of its duplicate.
type rawFields []byte

// MarshalWire implements wire.Marshaler. rawFields has no UnmarshalWire: the
// handler decodes the bytes as the original request's type.
//
//lint:allow wirecover (encode-only: the bytes are another type's fields)
func (r rawFields) MarshalWire(e *wire.Encoder) {
	for _, b := range r {
		e.Byte(b)
	}
}

// fieldsOf encodes req's fields, or returns nil when req has no wire codec,
// which fails the original delivery anyway.
func fieldsOf(req any) rawFields {
	m, ok := req.(wire.Marshaler)
	if !ok {
		return nil
	}
	e := wire.GetEncoder()
	m.MarshalWire(e)
	out := append(rawFields{}, e.Data()...)
	wire.PutEncoder(e)
	return out
}

// simNode is one served address: its InProc attachment and crash flag.
type simNode struct {
	detach func() // leaves the InProc fabric; nil once wiped
	down   bool
}

func (nd *simNode) up() bool { return !nd.down && nd.detach != nil }

// Net is the simulated network fabric.
type Net struct {
	faults                   // its mu also guards the fields below
	fab    *transport.InProc // delivers every call simnet lets through
	seed   int64
	nodes  map[string]*simNode
	links  map[linkKey]*link
	def    LinkProfile
}

// New returns a fully connected, fault-free network on clk, deriving all
// fault randomness from seed. A nil clk uses the real clock.
//
//lint:allow shipped (test harness: the simulated-mobility scenario suites drive simnet)
func New(clk clock.Clock, seed int64) *Net {
	if clk == nil {
		clk = clock.Real{}
	}
	n := &Net{
		faults: faults{clk: clk, stop: make(chan struct{})},
		fab:    transport.NewInProc(),
		seed:   seed,
		nodes:  make(map[string]*simNode),
		links:  make(map[linkKey]*link),
	}
	n.alive = func(to string) bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		nd, ok := n.nodes[to]
		return ok && nd.up()
	}
	return n
}

// Close stops pending duplicate deliveries and waits for them to drain.
func (n *Net) Close() {
	n.mu.Lock()
	if !n.closed {
		n.closed = true
		close(n.stop)
	}
	n.mu.Unlock()
	n.pending.Wait()
}

// Serve attaches h at addr, or re-attaches a fresh handler to a wiped node
// (a restart with state lost). The returned stop function detaches it.
//
//lint:allow shipped (test harness: the simulated-mobility scenario suites drive simnet)
func (n *Net) Serve(addr string, h transport.Handler) (func(), error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	detach, err := n.fab.Serve(addr, h) // fails while addr is attached
	if err != nil {
		return nil, err
	}
	nd, ok := n.nodes[addr]
	if !ok {
		nd = &simNode{}
		n.nodes[addr] = nd
	}
	nd.detach, nd.down = detach, false
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.nodes[addr] == nd {
			delete(n.nodes, addr)
			nd.wipe()
		}
	}, nil
}

// wipe detaches the node from the InProc fabric, if attached, and marks it
// down.
func (nd *simNode) wipe() {
	if nd.detach != nil {
		nd.detach()
		nd.detach = nil
	}
	nd.down = true
}

// Node returns a Caller whose calls originate from addr, so partitions and
// crash state are evaluated against the correct link endpoints.
//
//lint:allow shipped (test harness: the simulated-mobility scenario suites drive simnet)
func (n *Net) Node(addr string) transport.Caller {
	return &caller{net: n, from: addr, inner: n.fab.Node(addr)}
}

// SetDefault installs the fault profile of every link without an explicit
// override.
//
//lint:allow shipped (test harness: the simulated-mobility scenario suites drive simnet)
func (n *Net) SetDefault(p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.def = p
}

// SetLink overrides the profile of the directed link from → to.
func (n *Net) SetLink(from, to string, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLocked(from, to).prof = &p
}

// SetLinkBoth overrides both directions between a and b.
//
//lint:allow shipped (test harness: the simulated-mobility scenario suites drive simnet)
func (n *Net) SetLinkBoth(a, b string, p LinkProfile) {
	n.SetLink(a, b, p)
	n.SetLink(b, a, p)
}

// Partition blocks all messages from → to (asymmetric: the reverse direction
// keeps flowing until partitioned itself).
func (n *Net) Partition(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLocked(from, to).partitioned = true
}

// PartitionBoth blocks both directions between a and b.
//
//lint:allow shipped (test harness: the simulated-mobility scenario suites drive simnet)
func (n *Net) PartitionBoth(a, b string) {
	n.Partition(a, b)
	n.Partition(b, a)
}

// Heal unblocks the directed link from → to.
func (n *Net) Heal(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLocked(from, to).partitioned = false
}

// HealBoth unblocks both directions between a and b.
//
//lint:allow shipped (test harness: the simulated-mobility scenario suites drive simnet)
func (n *Net) HealBoth(a, b string) {
	n.Heal(a, b)
	n.Heal(b, a)
}

// HealAll removes every partition.
//
//lint:allow shipped (test harness: the simulated-mobility scenario suites drive simnet)
func (n *Net) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		l.partitioned = false
	}
}

// Crash takes the node at addr off the network; its state (handler) is
// retained for Restart.
//
//lint:allow shipped (test harness: the simulated-mobility scenario suites drive simnet)
func (n *Net) Crash(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[addr]; ok {
		nd.down = true
	}
}

// Restart brings a crashed node back with its state retained.
//
//lint:allow shipped (test harness: the simulated-mobility scenario suites drive simnet)
func (n *Net) Restart(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[addr]; ok && nd.detach != nil {
		nd.down = false
	}
}

// Wipe crashes the node at addr and discards its state; a subsequent Serve
// on the same address models a restart from scratch.
//
//lint:allow shipped (test harness: the simulated-mobility scenario suites drive simnet)
func (n *Net) Wipe(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[addr]; ok {
		nd.wipe()
	}
}

// linkLocked returns the directed link, creating it (with its seed-derived
// RNG) on first use. Callers hold n.mu.
func (n *Net) linkLocked(from, to string) *link {
	k := linkKey{from, to}
	l, ok := n.links[k]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(from))
		h.Write([]byte{0})
		h.Write([]byte(to))
		l = &link{rng: rand.New(rand.NewSource(n.seed ^ int64(h.Sum64())))}
		n.links[k] = l
	}
	return l
}

type caller struct {
	net   *Net
	from  string
	inner transport.Caller // the InProc fabric's caller from the same address
}

// Call implements transport.Caller. The request traverses the from→to link
// (loss, latency, duplication, reordering, partition) and the response the
// to→from link (loss, latency, partition), so asymmetric failures — request
// delivered, response lost — occur exactly as on a real wireless fabric.
func (c *caller) Call(ctx context.Context, to, method string, req, resp any) error {
	n := c.net
	n.mu.Lock()
	plan, err := n.requestLocked(c.from, to)
	n.mu.Unlock()
	if err != nil {
		return err
	}
	reached, err := n.send(ctx, c.inner, plan, c.from, to, method, req, resp)
	if !reached || c.from == to {
		return err
	}
	// Response path: the reverse link's partition and faults apply, so the
	// handler may have executed while the caller still sees a failure.
	n.mu.Lock()
	rplan, ferr := n.fateLocked(to, c.from, "response")
	n.mu.Unlock()
	if ferr == nil {
		ferr = n.suffer(ctx, rplan, "response", to, c.from)
	}
	return cmp.Or(ferr, err)
}

// requestLocked counts a call from → to and draws its request's fate,
// failing it when either end is down or the link is partitioned. A node's
// calls to itself take no link. Callers hold n.mu.
func (n *Net) requestLocked(from, to string) (sendPlan, error) {
	n.m.calls.Inc()
	if src, ok := n.nodes[from]; ok && !src.up() {
		n.m.downDrops.Inc()
		return sendPlan{}, fmt.Errorf("%w: %s is down", transport.ErrUnreachable, from)
	}
	if dst, ok := n.nodes[to]; !ok || !dst.up() {
		n.m.downDrops.Inc()
		return sendPlan{}, fmt.Errorf("%w: %s", transport.ErrUnreachable, to)
	}
	if from == to {
		return sendPlan{}, nil
	}
	return n.fateLocked(from, to, "message")
}

// fateLocked draws the fate of a message from → to, failing it when the link
// is partitioned. Callers hold n.mu.
func (n *Net) fateLocked(from, to, what string) (sendPlan, error) {
	l := n.linkLocked(from, to)
	if l.partitioned {
		n.m.partitionDrops.Inc()
		return sendPlan{}, fmt.Errorf("%w: %s -> %s (%s partitioned)", transport.ErrUnreachable, from, to, what)
	}
	return l.plan(&n.def), nil
}
