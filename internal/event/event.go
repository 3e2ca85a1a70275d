// Package event implements Jini-style remote events: leased listener
// registrations receiving sequenced, asynchronously delivered notifications.
// The lookup service uses it to tell extension bases about newly arrived
// adaptation services; the monitoring extensions use it to stream state
// changes to base stations.
package event

import (
	"context"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/lease"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Notification is one delivered event. Seq increases per subscription, so
// listeners can detect loss or reordering. Trace carries the span context of
// the operation that published the event, so a notification delivered later
// on another node still joins the originating trace; the zero value means the
// publish was untraced.
type Notification struct {
	Source string
	Seq    int64
	Kind   string
	Body   []byte
	Trace  trace.SpanContext
}

// DecodeBody decodes the notification payload into v.
func (n *Notification) DecodeBody(v wire.Unmarshaler) error {
	return transport.Decode(n.Body, v)
}

// Ack is a listener's empty answer to a delivered Notification.
type Ack struct{}

// Subscription describes one leased remote listener.
type Subscription struct {
	ID     string
	Addr   string // transport address the listener serves
	Method string // RPC method receiving Notification
}

const (
	// deliveryQueue bounds per-subscriber buffering.
	deliveryQueue = 64
	// maxFailures drops a subscriber after this many consecutive send errors.
	maxFailures = 3
	// deliveryTimeout bounds one remote notify call.
	deliveryTimeout = 2 * time.Second
)

type subscriber struct {
	sub      Subscription
	leaseID  lease.ID
	seq      int64
	failures int
	queue    chan Notification
	done     chan struct{}
}

// Dispatcher fans notifications out to leased subscribers. Each subscriber
// has a private ordered queue drained by its own goroutine, so one slow
// listener cannot stall the others.
type Dispatcher struct {
	source  string
	caller  transport.Caller
	grantor *lease.Grantor

	mu   sync.Mutex
	subs map[string]*subscriber
	next int
}

// NewDispatcher returns a dispatcher identified as source, delivering through
// caller, leasing on clk.
func NewDispatcher(source string, caller transport.Caller, clk clock.Clock) *Dispatcher {
	return &Dispatcher{
		source:  source,
		caller:  caller,
		grantor: lease.NewGrantor(clk),
		subs:    make(map[string]*subscriber),
	}
}

// Grantor exposes the lease grantor so callers can drive expiry sweeps.
func (d *Dispatcher) Grantor() *lease.Grantor { return d.grantor }

// Subscribe registers a leased listener and returns its id and lease.
func (d *Dispatcher) Subscribe(addr, method string, dur time.Duration) (string, lease.Lease) {
	d.mu.Lock()
	d.next++
	id := d.source + "/sub-" + strconv.Itoa(d.next)
	s := &subscriber{
		sub:   Subscription{ID: id, Addr: addr, Method: method},
		queue: make(chan Notification, deliveryQueue),
		done:  make(chan struct{}),
	}
	d.subs[id] = s
	d.mu.Unlock()

	l := d.grantor.Grant(context.Background(), dur, func(lease.ID) { d.remove(id) })
	d.mu.Lock()
	s.leaseID = l.ID
	d.mu.Unlock()

	go d.drain(s)
	return id, l
}

// Renew extends a subscription's lease.
func (d *Dispatcher) Renew(id string, dur time.Duration) (lease.Lease, error) {
	d.mu.Lock()
	s, ok := d.subs[id]
	d.mu.Unlock()
	if !ok {
		return lease.Lease{}, lease.ErrUnknownLease
	}
	return d.grantor.Renew(context.Background(), s.leaseID, dur)
}

// Cancel removes a subscription.
func (d *Dispatcher) Cancel(id string) {
	d.mu.Lock()
	s, ok := d.subs[id]
	d.mu.Unlock()
	if ok {
		_ = d.grantor.Cancel(s.leaseID)
		d.remove(id)
	}
}

// Subscribers returns the ids of live subscriptions.
func (d *Dispatcher) Subscribers() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.subs))
	for id := range d.subs {
		out = append(out, id)
	}
	return out
}

// Publish encodes body and enqueues a notification of the given kind to
// every subscriber, carrying the span context from ctx (if any) so
// asynchronous delivery still joins the publishing operation's trace.
// Returns the number of subscribers targeted.
func (d *Dispatcher) Publish(ctx context.Context, kind string, body wire.Marshaler) int {
	data := wire.Marshal(body)
	sc, _ := trace.FromContext(ctx)
	d.mu.Lock()
	targets := make([]*subscriber, 0, len(d.subs))
	for _, s := range d.subs {
		targets = append(targets, s)
	}
	d.mu.Unlock()
	for _, s := range targets {
		d.enqueue(s, kind, data, sc)
	}
	return len(targets)
}

// PublishTo notifies a single subscription, carrying the span context from
// ctx (if any).
func (d *Dispatcher) PublishTo(ctx context.Context, id, kind string, body wire.Marshaler) error {
	d.mu.Lock()
	s, ok := d.subs[id]
	d.mu.Unlock()
	if !ok {
		return lease.ErrUnknownLease
	}
	sc, _ := trace.FromContext(ctx)
	d.enqueue(s, kind, wire.Marshal(body), sc)
	return nil
}

// ExpireNow sweeps lapsed subscription leases.
func (d *Dispatcher) ExpireNow() int { return d.grantor.ExpireNow() }

// Close drops all subscriptions and waits for delivery goroutines.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	ids := make([]string, 0, len(d.subs))
	for id := range d.subs {
		ids = append(ids, id)
	}
	d.mu.Unlock()
	for _, id := range ids {
		d.remove(id)
	}
}

func (d *Dispatcher) enqueue(s *subscriber, kind string, body []byte, sc trace.SpanContext) {
	d.mu.Lock()
	s.seq++
	n := Notification{Source: d.source, Seq: s.seq, Kind: kind, Body: body, Trace: sc}
	d.mu.Unlock()
	select {
	case s.queue <- n:
	default:
		// Queue overflow counts as a delivery failure; the subscriber is
		// clearly not keeping up.
		d.fail(s)
	}
}

func (d *Dispatcher) drain(s *subscriber) {
	for {
		select {
		case <-s.done:
			return
		case n := <-s.queue:
			// Reconstitute the publisher's span context so the notify RPC
			// (and anything the listener does with it) joins its trace.
			ctx, cancel := context.WithTimeout(trace.NewContext(context.Background(), n.Trace), deliveryTimeout)
			err := d.caller.Call(ctx, s.sub.Addr, s.sub.Method, n, nil)
			cancel()
			if err != nil {
				d.fail(s)
			} else {
				d.mu.Lock()
				s.failures = 0
				d.mu.Unlock()
			}
		}
	}
}

func (d *Dispatcher) fail(s *subscriber) {
	d.mu.Lock()
	s.failures++
	dead := s.failures >= maxFailures
	id := s.sub.ID
	leaseID := s.leaseID
	d.mu.Unlock()
	if dead {
		_ = d.grantor.Cancel(leaseID)
		d.remove(id)
	}
}

func (d *Dispatcher) remove(id string) {
	d.mu.Lock()
	s, ok := d.subs[id]
	if ok {
		delete(d.subs, id)
	}
	d.mu.Unlock()
	if ok {
		close(s.done)
	}
}
