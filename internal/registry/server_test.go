package registry

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/transport"
)

func newLookupServer(t *testing.T, fabric *transport.InProc) (*Server, *Client) {
	t.Helper()
	lookup := NewLookup(clock.Real{})
	mux := transport.NewMux()
	srv := NewServer("lookup", lookup, mux, fabric.Node("lookup"), clock.Real{})
	stop, err := fabric.Serve("lookup", mux)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); stop() })
	client := &Client{Caller: fabric.Node("client"), Addr: "lookup"}
	return srv, client
}

func TestServerRegisterFindRenewDeregister(t *testing.T) {
	fabric := transport.NewInProc()
	_, client := newLookupServer(t, fabric)

	leaseID, err := client.Register(context.Background(), ServiceItem{ID: "r1", Name: "midas.adaptation", Addr: "r1"}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if leaseID == "" {
		t.Fatal("empty lease id")
	}
	items, err := client.Find(Template{Name: "midas.*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].ID != "r1" {
		t.Fatalf("Find = %v", items)
	}
	if err := client.Renew(leaseID, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := client.Deregister("r1"); err != nil {
		t.Fatal(err)
	}
	items, _ = client.Find(Template{})
	if len(items) != 0 {
		t.Fatalf("after deregister: %v", items)
	}
}

func TestServerWatchDeliversRemoteEvents(t *testing.T) {
	fabric := transport.NewInProc()
	_, client := newLookupServer(t, fabric)

	var mu sync.Mutex
	var events []Event
	listener := transport.NewMux()
	transport.Register(listener, "onchange", func(_ context.Context, n event.Notification) (event.Ack, error) {
		var ev Event
		if err := n.DecodeBody(&ev); err != nil {
			t.Errorf("decode: %v", err)
		}
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
		return event.Ack{}, nil
	})
	stop, err := fabric.Serve("base1", listener)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	watchID, err := client.Watch(Template{Name: "midas.adaptation"}, time.Minute, "base1", "onchange")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.RenewWatch(watchID, time.Minute); err != nil {
		t.Fatal(err)
	}

	if _, err := client.Register(context.Background(), ServiceItem{ID: "r1", Name: "midas.adaptation", Addr: "r1"}, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := client.Deregister("r1"); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		n := len(events)
		mu.Unlock()
		if n >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("watch events not delivered")
		case <-time.After(time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if events[0].Kind != Added || events[1].Kind != Removed {
		t.Errorf("events = %+v", events)
	}

	if err := client.Unwatch(watchID); err != nil {
		t.Fatal(err)
	}
}

func TestServerOverTCP(t *testing.T) {
	lookup := NewLookup(clock.Real{})
	mux := transport.NewMux()
	caller := transport.NewTCPCaller()
	defer caller.Close()
	srv := NewServer("lookup", lookup, mux, caller, clock.Real{})
	defer srv.Close()
	tcpSrv, err := transport.ServeTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer tcpSrv.Close()

	client := &Client{Caller: caller, Addr: tcpSrv.Addr()}
	if _, err := client.Register(context.Background(), ServiceItem{ID: "n1", Name: "svc", Addr: "x"}, time.Minute); err != nil {
		t.Fatal(err)
	}
	items, err := client.Find(Template{Name: "svc"})
	if err != nil || len(items) != 1 {
		t.Fatalf("Find over TCP = %v, %v", items, err)
	}
}
