package discovery

import (
	"bytes"
	"encoding/gob"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
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

func TestUDPAnnounceListen(t *testing.T) {
	ch := make(chan Announcement, 1)
	l, err := ListenUDP("127.0.0.1:0", func(a Announcement) {
		select {
		case ch <- a:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	want := Announcement{Name: "hall-9", LookupAddr: "10.0.0.1:7000", Area: "west"}
	// UDP is lossy even on loopback in theory; retry a few times.
	for i := 0; i < 5; i++ {
		if err := AnnounceUDP(l.Addr(), want); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-ch:
			if got != want {
				t.Fatalf("got = %+v", got)
			}
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
	t.Fatal("announcement not received over UDP")
}

// TestUDPListenerDropsMalformedDatagrams pins that the listener only accepts
// well-formed wire announcements: a gob datagram, a truncated frame and a
// frame claiming a hostile length are all dropped without reaching the
// callback, and the listener keeps serving the next valid announcement.
func TestUDPListenerDropsMalformedDatagrams(t *testing.T) {
	ch := make(chan Announcement, 16)
	l, err := ListenUDP("127.0.0.1:0", func(a Announcement) {
		select {
		case ch <- a:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	want := Announcement{Name: "hall-9", LookupAddr: "10.0.0.1:7000", Area: "west"}
	var gobBody bytes.Buffer
	if err := gob.NewEncoder(&gobBody).Encode(&Announcement{Name: "spoofed", LookupAddr: "10.6.6.6:7000"}); err != nil {
		t.Fatal(err)
	}
	frame := wire.Marshal(want)
	hostile := append(wire.Header(), 0xff, 0xff, 0xff, 0xff, 0x0f) // a 4 GiB name
	conn, err := net.Dial("udp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, bad := range [][]byte{gobBody.Bytes(), frame[:len(frame)-1], hostile} {
		if _, err := conn.Write(bad); err != nil {
			t.Fatal(err)
		}
	}
	// UDP is lossy even on loopback in theory; retry the valid one a few
	// times. Whatever arrives must be the valid announcement.
	for i := 0; i < 5; i++ {
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-ch:
			if got != want {
				t.Fatalf("listener delivered %+v, want only %+v", got, want)
			}
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
	t.Fatal("valid announcement not received after malformed datagrams")
}
