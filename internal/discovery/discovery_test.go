package discovery

import (
	"sync"
	"testing"
)

func TestBusAnnounceSubscribe(t *testing.T) {
	bus := NewBus()
	var mu sync.Mutex
	var got []Announcement
	cancel := bus.Subscribe(func(a Announcement) {
		mu.Lock()
		got = append(got, a)
		mu.Unlock()
	}, nil)

	bus.Announce(Announcement{Name: "hall-1", LookupAddr: "lookup-1"})
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 1 || got[0].Name != "hall-1" {
		t.Fatalf("got = %v", got)
	}

	cancel()
	bus.Announce(Announcement{Name: "hall-2"})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Error("unsubscribed listener received announcement")
	}
}

func TestBusFilter(t *testing.T) {
	bus := NewBus()
	var got []Announcement
	bus.Subscribe(func(a Announcement) { got = append(got, a) },
		func(a Announcement) bool { return a.Area == "north" })
	bus.Announce(Announcement{Name: "a", Area: "north"})
	bus.Announce(Announcement{Name: "b", Area: "south"})
	if len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("got = %v", got)
	}
}
