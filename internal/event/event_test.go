package event

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/testutil"
	"repro/internal/transport"
)

type collected struct {
	mu    sync.Mutex
	notes []Notification
}

func (c *collected) add(n Notification) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.notes = append(c.notes, n)
}

func (c *collected) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.notes)
}

func (c *collected) snapshot() []Notification {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Notification, len(c.notes))
	copy(out, c.notes)
	return out
}

func listenerMux(c *collected) *transport.Mux {
	mux := transport.NewMux()
	transport.Register(mux, "notify", func(_ context.Context, n Notification) (Ack, error) {
		c.add(n)
		return Ack{}, nil
	})
	return mux
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatal("condition not reached")
		case <-time.After(time.Millisecond):
		}
	}
}

type payload = testutil.WireReq

func TestPublishDelivers(t *testing.T) {
	fabric := transport.NewInProc()
	var got collected
	stop, _ := fabric.Serve("listener", listenerMux(&got))
	defer stop()

	d := NewDispatcher("src", fabric.Node("src"), clock.Real{})
	defer d.Close()
	id, _ := d.Subscribe("listener", "notify", time.Minute)
	if id == "" {
		t.Fatal("empty subscription id")
	}
	for i := 1; i <= 3; i++ {
		d.Publish(context.Background(), "tick", payload{N: int64(i)})
	}
	waitFor(t, func() bool { return got.len() == 3 })

	notes := got.snapshot()
	for i, n := range notes {
		if n.Seq != int64(i+1) {
			t.Errorf("seq[%d] = %d", i, n.Seq)
		}
		if n.Kind != "tick" || n.Source != "src" {
			t.Errorf("note = %+v", n)
		}
		var p payload
		if err := n.DecodeBody(&p); err != nil || p.N != int64(i+1) {
			t.Errorf("body[%d] = %+v, %v", i, p, err)
		}
	}
}

func TestPublishToTargetsOne(t *testing.T) {
	fabric := transport.NewInProc()
	var a, b collected
	stopA, _ := fabric.Serve("a", listenerMux(&a))
	defer stopA()
	stopB, _ := fabric.Serve("b", listenerMux(&b))
	defer stopB()

	d := NewDispatcher("src", fabric.Node("src"), clock.Real{})
	defer d.Close()
	idA, _ := d.Subscribe("a", "notify", time.Minute)
	d.Subscribe("b", "notify", time.Minute)

	if err := d.PublishTo(context.Background(), idA, "only-a", payload{N: 9}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return a.len() == 1 })
	time.Sleep(10 * time.Millisecond)
	if b.len() != 0 {
		t.Error("b received a targeted event")
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	fabric := transport.NewInProc()
	var got collected
	stop, _ := fabric.Serve("l", listenerMux(&got))
	defer stop()
	d := NewDispatcher("src", fabric.Node("src"), clock.Real{})
	defer d.Close()
	id, _ := d.Subscribe("l", "notify", time.Minute)
	d.Cancel(id)
	if n := d.Publish(context.Background(), "tick", payload{}); n != 0 {
		t.Errorf("published to %d subscribers after cancel", n)
	}
	if len(d.Subscribers()) != 0 {
		t.Error("subscriber list not empty")
	}
}

func TestLeaseExpiryDropsSubscriber(t *testing.T) {
	fabric := transport.NewInProc()
	var got collected
	stop, _ := fabric.Serve("l", listenerMux(&got))
	defer stop()
	clk := clock.NewManual(time.Unix(0, 0))
	d := NewDispatcher("src", fabric.Node("src"), clk)
	defer d.Close()
	d.Subscribe("l", "notify", 10*time.Second)
	clk.Advance(11 * time.Second)
	if n := d.ExpireNow(); n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	if len(d.Subscribers()) != 0 {
		t.Error("expired subscriber still present")
	}
}

func TestUnreachableSubscriberDropped(t *testing.T) {
	fabric := transport.NewInProc()
	// No listener served at "ghost".
	d := NewDispatcher("src", fabric.Node("src"), clock.Real{})
	defer d.Close()
	d.Subscribe("ghost", "notify", time.Minute)
	for i := 0; i < maxFailures; i++ {
		d.Publish(context.Background(), "tick", payload{})
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, func() bool { return len(d.Subscribers()) == 0 })
}

func TestRenewUnknown(t *testing.T) {
	fabric := transport.NewInProc()
	d := NewDispatcher("src", fabric.Node("src"), clock.Real{})
	defer d.Close()
	if _, err := d.Renew("nope", time.Second); err == nil {
		t.Fatal("renew of unknown subscription should fail")
	}
}
