// Package discovery implements the announce/listen protocol through which
// nodes find lookup services when they enter a new environment (the Jini
// discovery role), over an in-process bus scoped by the mobility simulator.
package discovery

import "sync"

// Announcement advertises a lookup service.
type Announcement struct {
	// Name identifies the environment, e.g. "hall-1".
	Name string
	// LookupAddr is the transport address of the lookup service.
	LookupAddr string
	// Area optionally names the physical area the announcement covers.
	Area string
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
