package registry

import (
	"context"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
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
	MethodUnwatch    = "lookup.unwatch"
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
	// WatchReq registers a remote watcher; events are delivered to
	// Addr/Method as event.Notification with an Event payload.
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
	// UnwatchReq removes a watcher.
	UnwatchReq struct {
		WatchID string
	}
	// Empty is the empty response.
	Empty struct{}
)

// Server exposes a Lookup over a transport Mux, delivering watcher events as
// remote events through an event.Dispatcher.
type Server struct {
	lookup     *Lookup
	dispatcher *event.Dispatcher
}

// NewServer wires lookup into mux. caller is used to deliver watcher events;
// name identifies this lookup service as an event source.
func NewServer(name string, lookup *Lookup, mux *transport.Mux, caller transport.Caller, clk clock.Clock) *Server {
	s := &Server{
		lookup:     lookup,
		dispatcher: event.NewDispatcher(name, caller, clk),
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
	transport.Register(mux, MethodUnwatch, func(_ context.Context, req UnwatchReq) (Empty, error) {
		lookup.Unwatch(req.WatchID)
		return Empty{}, nil
	})
	return s
}

func (s *Server) watch(req WatchReq) (WatchResp, error) {
	// Event delivery is leased implicitly through the lookup watcher; the
	// dispatcher subscription lives until the watcher is removed.
	subID, _ := s.dispatcher.Subscribe(req.Addr, req.Method, 365*24*time.Hour)
	watchID, _ := s.lookup.Watch(req.Tmpl, time.Duration(req.DurMillis)*time.Millisecond,
		func(ev Event) {
			// Deliver under the registrant's span context so the watcher's
			// reaction joins its trace.
			ectx := trace.NewContext(context.Background(), ev.Trace)
			_ = s.dispatcher.PublishTo(ectx, subID, "registry."+ev.Kind.String(), ev)
		},
		func() { s.dispatcher.Cancel(subID) })
	return WatchResp{WatchID: watchID, DurMillis: req.DurMillis}, nil
}

// Close releases dispatcher resources.
func (s *Server) Close() { s.dispatcher.Close() }

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

// Unwatch removes a watcher.
func (c *Client) Unwatch(watchID string) error {
	ctx, cancel := c.ctx()
	defer cancel()
	_, err := transport.Invoke[UnwatchReq, Empty](ctx, c.Caller, c.Addr, MethodUnwatch,
		UnwatchReq{WatchID: watchID})
	return err
}
