package registry

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/lease"
	"repro/internal/trace"
	"repro/internal/transport"
)

// RPC method names served by a lookup Server.
const (
	MethodRegister   = "lookup.register"
	MethodRenew      = "lookup.renew"
	MethodDeregister = "lookup.deregister"
	MethodFind       = "lookup.find"
	MethodWatch      = "lookup.watch"
	MethodRenewWatch = "lookup.renewWatch"
)

// Wire types.
type (
	// RegisterReq advertises a service item.
	RegisterReq struct {
		Item      ServiceItem
		DurMillis int64
	}
	// LeaseResp carries a granted or renewed lease.
	LeaseResp struct {
		LeaseID   string
		DurMillis int64
	}
	// RenewReq renews a registration lease.
	RenewReq struct {
		LeaseID   string
		DurMillis int64
	}
	// DeregisterReq removes a service.
	DeregisterReq struct {
		ServiceID string
	}
	// FindReq queries by template.
	FindReq struct {
		Tmpl Template
	}
	// FindResp lists matches.
	FindResp struct {
		Items []ServiceItem
	}
	// WatchReq registers a remote watcher; each Event is delivered to
	// Addr/Method, which answers Empty.
	WatchReq struct {
		Tmpl      Template
		DurMillis int64
		Addr      string
		Method    string
	}
	// WatchResp identifies the watcher and its lease.
	WatchResp struct {
		WatchID   string
		DurMillis int64
	}
	// RenewWatchReq renews a watcher lease.
	RenewWatchReq struct {
		WatchID   string
		DurMillis int64
	}
	// Empty is the empty response.
	Empty struct{}
)

// Server exposes a Lookup over a transport Mux and delivers each remote
// watcher's events to its listener.
type Server struct {
	lookup *Lookup
	caller transport.Caller
	clk    clock.Clock

	mu      sync.Mutex
	watches map[*remoteWatch]struct{}
	closed  bool
	loops   sync.WaitGroup
}

// errServerClosed refuses a watch on a closed Server.
var errServerClosed = errors.New("registry: server closed")

const (
	// maxFailures ends a remote watch after this many failed sends of one
	// event in a row.
	maxFailures = 3
	// deliveryTimeout bounds one remote notify call.
	deliveryTimeout = 2 * time.Second
	// minShedWait paces resends to a listener that sheds without a hint.
	minShedWait = 10 * time.Millisecond
)

// remoteWatch is one remote watcher's delivery state: a FIFO of the
// lookup's events, drained in order by one goroutine (Server.deliver).
type remoteWatch struct {
	id           string
	addr, method string
	ctx          context.Context // done once the watch has ended
	end          context.CancelFunc
	wake         chan struct{} // signalled by push; capacity 1

	mu    sync.Mutex
	queue []Event
}

// push queues ev for delivery. The queue has no fixed bound, so a burst
// never ends a watch. It holds at most the events the lookup produced since
// the loop's last delivery: each entry is a registration change the lookup
// has already made (a register, deregister or expiry), and each delivery
// removes one. When the watch ends, the queue goes with it.
func (w *remoteWatch) push(ev Event) {
	if w.ctx.Err() != nil {
		return
	}
	w.mu.Lock()
	w.queue = append(w.queue, ev)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// head waits for the oldest undelivered event. It reports false once the
// watch has ended.
func (w *remoteWatch) head() (Event, bool) {
	for {
		if w.ctx.Err() != nil {
			return Event{}, false
		}
		w.mu.Lock()
		if len(w.queue) > 0 {
			ev := w.queue[0]
			w.mu.Unlock()
			return ev, true
		}
		w.mu.Unlock()
		select {
		case <-w.wake:
		case <-w.ctx.Done():
		}
	}
}

// pop drops the delivered head.
func (w *remoteWatch) pop() {
	w.mu.Lock()
	w.queue[0] = Event{}
	w.queue = w.queue[1:]
	w.mu.Unlock()
}

// NewServer wires lookup into mux. caller delivers watcher events; clk times
// the waits a listener's load shed asks for.
func NewServer(lookup *Lookup, mux *transport.Mux, caller transport.Caller, clk clock.Clock) *Server {
	s := &Server{
		lookup:  lookup,
		caller:  caller,
		clk:     clk,
		watches: make(map[*remoteWatch]struct{}),
	}
	transport.Register(mux, MethodRegister, func(ctx context.Context, req RegisterReq) (LeaseResp, error) {
		l, err := lookup.Register(ctx, req.Item, time.Duration(req.DurMillis)*time.Millisecond)
		if err != nil {
			return LeaseResp{}, err
		}
		return LeaseResp{LeaseID: string(l.ID), DurMillis: req.DurMillis}, nil
	})
	transport.Register(mux, MethodRenew, func(_ context.Context, req RenewReq) (LeaseResp, error) {
		l, err := lookup.Renew(lease.ID(req.LeaseID), time.Duration(req.DurMillis)*time.Millisecond)
		if err != nil {
			return LeaseResp{}, err
		}
		return LeaseResp{LeaseID: string(l.ID), DurMillis: req.DurMillis}, nil
	})
	transport.Register(mux, MethodDeregister, func(_ context.Context, req DeregisterReq) (Empty, error) {
		return Empty{}, lookup.Deregister(req.ServiceID)
	})
	transport.Register(mux, MethodFind, func(_ context.Context, req FindReq) (FindResp, error) {
		return FindResp{Items: lookup.Find(req.Tmpl)}, nil
	})
	transport.Register(mux, MethodWatch, func(_ context.Context, req WatchReq) (WatchResp, error) {
		return s.watch(req)
	})
	transport.Register(mux, MethodRenewWatch, func(_ context.Context, req RenewWatchReq) (LeaseResp, error) {
		l, err := lookup.RenewWatch(req.WatchID, time.Duration(req.DurMillis)*time.Millisecond)
		if err != nil {
			return LeaseResp{}, err
		}
		return LeaseResp{LeaseID: string(l.ID), DurMillis: req.DurMillis}, nil
	})
	return s
}

func (s *Server) watch(req WatchReq) (WatchResp, error) {
	ctx, end := context.WithCancel(context.Background())
	w := &remoteWatch{addr: req.Addr, method: req.Method, ctx: ctx, end: end, wake: make(chan struct{}, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		end()
		return WatchResp{}, errServerClosed
	}
	s.watches[w] = struct{}{}
	s.loops.Add(1)
	s.mu.Unlock()
	w.id, _ = s.lookup.Watch(req.Tmpl, time.Duration(req.DurMillis)*time.Millisecond, w.push, end)
	go s.deliver(w)
	return WatchResp{WatchID: w.id, DurMillis: req.DurMillis}, nil
}

// deliver sends w's events to its listener in order until the watch ends:
// by Unwatch or lease expiry at the lookup, by Close, or here after
// maxFailures failed sends of one event in a row. Whichever way it ends, the
// lookup's watcher goes too, so the holder's next RenewWatch fails.
func (s *Server) deliver(w *remoteWatch) {
	defer func() {
		w.end()
		s.lookup.Unwatch(w.id)
		s.mu.Lock()
		delete(s.watches, w)
		s.mu.Unlock()
		s.loops.Done()
	}()
	for {
		ev, ok := w.head()
		if !ok {
			return
		}
		for failures := 0; ; {
			err := s.send(w, ev)
			if err == nil {
				break
			}
			if w.ctx.Err() != nil {
				return // ended mid-send: not the listener's failure
			}
			// A shed means the listener answered: wait as long as it asks and
			// resend, without counting a failure: a shed is an answer, not a
			// lost delivery.
			if hint, shed := transport.RetryAfterHint(err); shed {
				select {
				case <-s.clk.After(max(hint, minShedWait)):
				case <-w.ctx.Done():
					return
				}
				continue
			}
			if failures++; failures >= maxFailures {
				return
			}
		}
		w.pop()
	}
}

// send makes one notify call under the registrant's span context, so the
// listener's reaction joins its trace.
func (s *Server) send(w *remoteWatch, ev Event) error {
	ctx, cancel := context.WithTimeout(trace.NewContext(w.ctx, ev.Trace), deliveryTimeout)
	defer cancel()
	return s.caller.Call(ctx, w.addr, w.method, ev, nil)
}

// Close ends every remote watch this server delivers, removing its watcher
// from the lookup, and waits for the delivery loops to exit. Later Watch
// calls fail.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for w := range s.watches {
		w.end()
	}
	s.mu.Unlock()
	s.loops.Wait()
}

// Client is a typed lookup-service client bound to one lookup address.
type Client struct {
	Caller transport.Caller
	Addr   string
	// Timeout bounds each RPC; default 2s.
	Timeout time.Duration
}

func (c *Client) ctx() (context.Context, context.CancelFunc) {
	return c.ctxFrom(context.Background())
}

func (c *Client) ctxFrom(parent context.Context) (context.Context, context.CancelFunc) {
	d := c.Timeout
	if d <= 0 {
		d = 2 * time.Second
	}
	return context.WithTimeout(parent, d)
}

// Register advertises item. The call keeps ctx (and any span context on it),
// so the registration joins an ongoing trace.
func (c *Client) Register(ctx context.Context, item ServiceItem, dur time.Duration) (lease.ID, error) {
	ctx, cancel := c.ctxFrom(ctx)
	defer cancel()
	resp, err := transport.Invoke[RegisterReq, LeaseResp](ctx, c.Caller, c.Addr, MethodRegister,
		RegisterReq{Item: item, DurMillis: dur.Milliseconds()})
	if err != nil {
		return "", err
	}
	return lease.ID(resp.LeaseID), nil
}

// Renew extends a registration lease.
func (c *Client) Renew(id lease.ID, dur time.Duration) error {
	ctx, cancel := c.ctx()
	defer cancel()
	_, err := transport.Invoke[RenewReq, LeaseResp](ctx, c.Caller, c.Addr, MethodRenew,
		RenewReq{LeaseID: string(id), DurMillis: dur.Milliseconds()})
	return err
}

// Deregister removes a service.
func (c *Client) Deregister(serviceID string) error {
	ctx, cancel := c.ctx()
	defer cancel()
	_, err := transport.Invoke[DeregisterReq, Empty](ctx, c.Caller, c.Addr, MethodDeregister,
		DeregisterReq{ServiceID: serviceID})
	return err
}

// Find queries by template.
func (c *Client) Find(tmpl Template) ([]ServiceItem, error) {
	ctx, cancel := c.ctx()
	defer cancel()
	resp, err := transport.Invoke[FindReq, FindResp](ctx, c.Caller, c.Addr, MethodFind, FindReq{Tmpl: tmpl})
	if err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// Watch registers a remote watcher delivering to addr/method.
func (c *Client) Watch(tmpl Template, dur time.Duration, addr, method string) (string, error) {
	ctx, cancel := c.ctx()
	defer cancel()
	resp, err := transport.Invoke[WatchReq, WatchResp](ctx, c.Caller, c.Addr, MethodWatch,
		WatchReq{Tmpl: tmpl, DurMillis: dur.Milliseconds(), Addr: addr, Method: method})
	if err != nil {
		return "", err
	}
	return resp.WatchID, nil
}

// RenewWatch extends a watcher lease.
func (c *Client) RenewWatch(watchID string, dur time.Duration) error {
	ctx, cancel := c.ctx()
	defer cancel()
	_, err := transport.Invoke[RenewWatchReq, LeaseResp](ctx, c.Caller, c.Addr, MethodRenewWatch,
		RenewWatchReq{WatchID: watchID, DurMillis: dur.Milliseconds()})
	return err
}
