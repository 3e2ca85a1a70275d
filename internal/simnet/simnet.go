// Package simnet is a deterministic, seeded network simulator for testing
// the platform under the hostile conditions of the paper's testbed: nodes
// roam out of coverage, wireless links lose, delay, duplicate and reorder
// messages, and bases or nodes crash and restart. It implements the
// transport.Caller/server surface, so every distributed component (bases,
// receivers, lookup services, event dispatchers) runs over it unmodified.
//
// All randomness comes from per-link RNGs derived from one seed, and all
// delays run on an injected clock (typically clock.Manual), so a scenario's
// fault schedule — which messages are lost, duplicated or delayed, and by
// how much — replays identically from the same seed.
package simnet

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/transport"
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

type simNode struct {
	h    transport.Handler
	down bool
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

// Net is the simulated network fabric.
type Net struct {
	clk  clock.Clock
	seed int64

	mu     sync.Mutex
	nodes  map[string]*simNode
	links  map[linkKey]*link
	def    LinkProfile
	m      netMetrics
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// New returns a fully connected, fault-free network on clk, deriving all
// fault randomness from seed. A nil clk uses the real clock.
func New(clk clock.Clock, seed int64) *Net {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Net{
		clk:   clk,
		seed:  seed,
		nodes: make(map[string]*simNode),
		links: make(map[linkKey]*link),
		stop:  make(chan struct{}),
	}
}

// Instrument records simulated traffic and injected faults in reg. A nil reg
// is a no-op.
func (n *Net) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.m = newNetMetrics(reg)
}

// Close stops pending duplicate deliveries and waits for them to drain.
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stop)
	n.wg.Wait()
}

// Serve attaches h at addr, or re-attaches a fresh handler to a wiped node
// (a restart with state lost). The returned stop function detaches it.
func (n *Net) Serve(addr string, h transport.Handler) (func(), error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	nd, ok := n.nodes[addr]
	if ok && nd.h != nil {
		return nil, fmt.Errorf("simnet: address %q in use", addr)
	}
	if !ok {
		nd = &simNode{}
		n.nodes[addr] = nd
	}
	nd.h = h
	nd.down = false
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		if cur, ok := n.nodes[addr]; ok && cur == nd {
			delete(n.nodes, addr)
		}
	}, nil
}

// Node returns a Caller whose calls originate from addr, so partitions and
// crash state are evaluated against the correct link endpoints.
func (n *Net) Node(addr string) transport.Caller {
	return &caller{net: n, from: addr}
}

// SetDefault installs the fault profile of every link without an explicit
// override.
func (n *Net) SetDefault(p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.def = p
}

// SetLink overrides the profile of the directed link from → to.
func (n *Net) SetLink(from, to string, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cp := p
	n.linkLocked(from, to).prof = &cp
}

// SetLinkBoth overrides both directions between a and b.
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
func (n *Net) HealBoth(a, b string) {
	n.Heal(a, b)
	n.Heal(b, a)
}

// HealAll removes every partition.
func (n *Net) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		l.partitioned = false
	}
}

// Crash takes the node at addr off the network; its state (handler) is
// retained for Restart.
func (n *Net) Crash(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[addr]; ok {
		nd.down = true
	}
}

// Restart brings a crashed node back with its state retained.
func (n *Net) Restart(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[addr]; ok && nd.h != nil {
		nd.down = false
	}
}

// Wipe crashes the node at addr and discards its state; a subsequent Serve
// on the same address models a restart from scratch.
func (n *Net) Wipe(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[addr]; ok {
		nd.h = nil
		nd.down = true
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

// sendPlan is one message's fate, drawn up front so each link's RNG is
// consumed in a fixed order per message regardless of the outcome.
type sendPlan struct {
	lost      bool
	dup       bool
	dupDelay  time.Duration
	reordered bool
	latency   time.Duration
}

// planLocked draws a message's fate from the link's RNG. Callers hold n.mu.
func (n *Net) planLocked(l *link) sendPlan {
	p := l.prof
	if p == nil {
		p = &n.def
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

type caller struct {
	net  *Net
	from string
}

// Call implements transport.Caller. The request traverses the from→to link
// (loss, latency, duplication, reordering, partition) and the response the
// to→from link (loss, latency, partition), so asymmetric failures — request
// delivered, response lost — occur exactly as on a real wireless fabric.
func (c *caller) Call(ctx context.Context, to, method string, req, resp any) error {
	n := c.net
	n.mu.Lock()
	n.m.calls.Inc()
	if src, ok := n.nodes[c.from]; ok && (src.down || src.h == nil) {
		n.m.downDrops.Inc()
		n.mu.Unlock()
		return fmt.Errorf("%w: %s is down", transport.ErrUnreachable, c.from)
	}
	dst, ok := n.nodes[to]
	if !ok || dst.down || dst.h == nil {
		n.m.downDrops.Inc()
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", transport.ErrUnreachable, to)
	}
	fwd := n.linkLocked(c.from, to)
	if c.from != to && fwd.partitioned {
		n.m.partitionDrops.Inc()
		n.mu.Unlock()
		return fmt.Errorf("%w: %s -> %s (partitioned)", transport.ErrUnreachable, c.from, to)
	}
	var plan sendPlan
	if c.from != to {
		plan = n.planLocked(fwd)
	}
	h := dst.h
	if plan.reordered {
		n.m.reorders.Inc()
	}
	n.mu.Unlock()

	if plan.lost {
		n.m.losses.Inc()
		return fmt.Errorf("%w: %s -> %s (message lost)", transport.ErrUnreachable, c.from, to)
	}
	if err := n.wait(ctx, plan.latency); err != nil {
		return err
	}
	body, _, err := transport.EncodeBody(req, true)
	if err != nil {
		return err
	}

	out, herr := h.Handle(transport.WithPeer(ctx, c.from), method, body)
	n.m.delivered.Inc()
	if plan.dup {
		n.deliverDup(c.from, to, method, body, plan.dupDelay)
	}

	// Response path: the reverse link's partition and faults apply, so the
	// handler may have executed while the caller still sees a failure.
	if c.from != to {
		n.mu.Lock()
		rev := n.linkLocked(to, c.from)
		if rev.partitioned {
			n.m.partitionDrops.Inc()
			n.mu.Unlock()
			return fmt.Errorf("%w: %s -> %s (response partitioned)", transport.ErrUnreachable, to, c.from)
		}
		rplan := n.planLocked(rev)
		n.mu.Unlock()
		if rplan.lost {
			n.m.losses.Inc()
			return fmt.Errorf("%w: %s -> %s (response lost)", transport.ErrUnreachable, to, c.from)
		}
		if rplan.reordered {
			n.m.reorders.Inc()
		}
		if err := n.wait(ctx, rplan.latency); err != nil {
			return err
		}
	}

	if herr != nil {
		return transport.NewRemoteError(method, herr.Error())
	}
	if resp == nil {
		return nil
	}
	return transport.Decode(out, resp)
}

// wait sleeps d on the simulated clock, honouring ctx.
func (n *Net) wait(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	select {
	case <-n.clk.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-n.stop:
		return fmt.Errorf("%w: simnet closed", transport.ErrUnreachable)
	}
}

// deliverDup re-delivers a request body, modelling a retransmitted datagram:
// immediately (back to back with the original) or after dupDelay of
// simulated time. The duplicate's response is discarded either way.
func (n *Net) deliverDup(from, to, method string, body []byte, dupDelay time.Duration) {
	redeliver := func() {
		n.mu.Lock()
		dst, ok := n.nodes[to]
		var h transport.Handler
		if ok && !dst.down {
			h = dst.h
		}
		n.mu.Unlock()
		if h == nil {
			return // crashed or wiped between original and duplicate
		}
		n.m.dups.Inc()
		// The duplicate keeps the original sender's identity: a retransmitted
		// datagram must not slip past per-peer admission control.
		_, _ = h.Handle(transport.WithPeer(context.Background(), from), method, body)
	}
	if dupDelay <= 0 {
		redeliver()
		return
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		select {
		case <-n.clk.After(dupDelay):
			redeliver()
		case <-n.stop:
		}
	}()
}
