// Package discovery implements the announce/listen protocol through which
// nodes find lookup services when they enter a new environment (the Jini
// discovery role). Two carriers are provided: an in-process bus scoped by the
// mobility simulator, and UDP datagrams for real deployments. A datagram
// carries one wire-encoded Announcement (internal/wire): datagrams arrive from
// anyone on the link, and the wire decoder bounds every length it reads.
package discovery

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/wire"
)

// Announcement advertises a lookup service.
type Announcement struct {
	// Name identifies the environment, e.g. "hall-1".
	Name string
	// LookupAddr is the transport address of the lookup service.
	LookupAddr string
	// Area optionally names the physical area the announcement covers.
	Area string
}

// MarshalWire encodes a with the wire codec.
func (a Announcement) MarshalWire(e *wire.Encoder) {
	e.String(a.Name)
	e.String(a.LookupAddr)
	e.String(a.Area)
}

// UnmarshalWire decodes a from the wire codec.
func (a *Announcement) UnmarshalWire(d *wire.Decoder) error {
	a.Name = d.String()
	a.LookupAddr = d.String()
	a.Area = d.String()
	return d.Err()
}

// Bus is an in-process announcement channel. Subscribers receive every
// announcement published after they subscribed; an optional filter restricts
// delivery (the mobility layer filters by area/range).
type Bus struct {
	mu     sync.Mutex
	subs   map[int]*busSub
	nextID int
}

type busSub struct {
	fn     func(Announcement)
	filter func(Announcement) bool
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[int]*busSub)}
}

// Announce publishes a to all current subscribers (synchronously).
func (b *Bus) Announce(a Announcement) {
	b.mu.Lock()
	subs := make([]*busSub, 0, len(b.subs))
	for _, s := range b.subs {
		subs = append(subs, s)
	}
	b.mu.Unlock()
	for _, s := range subs {
		if s.filter == nil || s.filter(a) {
			s.fn(a)
		}
	}
}

// Subscribe registers fn (with an optional filter); the returned function
// unsubscribes.
func (b *Bus) Subscribe(fn func(Announcement), filter func(Announcement) bool) func() {
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	b.subs[id] = &busSub{fn: fn, filter: filter}
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		delete(b.subs, id)
		b.mu.Unlock()
	}
}

// UDPListener receives announcements over UDP.
type UDPListener struct {
	conn *net.UDPConn
	done chan struct{}
}

// ListenUDP binds addr (e.g. "127.0.0.1:0") and invokes fn for every received
// announcement. A datagram that is not one well-formed wire Announcement is
// dropped.
func ListenUDP(addr string, fn func(Announcement)) (*UDPListener, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("discovery: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("discovery: listen %s: %w", addr, err)
	}
	l := &UDPListener{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		buf := make([]byte, 4096)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			var a Announcement
			if err := wire.Unmarshal(buf[:n], &a); err != nil {
				continue // ignore malformed datagrams
			}
			fn(a)
		}
	}()
	return l, nil
}

// Addr returns the bound UDP address.
func (l *UDPListener) Addr() string { return l.conn.LocalAddr().String() }

// Close stops the listener.
func (l *UDPListener) Close() error {
	err := l.conn.Close()
	<-l.done
	return err
}

// AnnounceUDP sends one announcement datagram to target.
func AnnounceUDP(target string, a Announcement) error {
	conn, err := net.Dial("udp", target)
	if err != nil {
		return fmt.Errorf("discovery: dial %s: %w", target, err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.Marshal(a)); err != nil {
		return fmt.Errorf("discovery: send: %w", err)
	}
	return nil
}
