// Package registry implements the Jini-like lookup service used for service
// detection and brokerage (§3.3): adaptation services advertise themselves as
// leased service items, extension bases find them by template or watch for
// their arrival through remote events.
package registry

import (
	"context"
	"errors"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/lease"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ServiceItem is one advertised service.
type ServiceItem struct {
	ID    string // globally unique service id chosen by the registrant
	Name  string // service type, e.g. "midas.adaptation"
	Addr  string // transport address the service is reachable at
	Attrs map[string]string
}

// Template selects service items: Name may contain '*' wildcards; all Attrs
// must be present with equal values. The zero Template matches everything.
type Template struct {
	Name  string
	Attrs map[string]string
}

// Matches reports whether item satisfies the template.
func (t Template) Matches(item ServiceItem) bool {
	if t.Name != "" && !globMatch(t.Name, item.Name) {
		return false
	}
	for k, v := range t.Attrs {
		got, ok := item.Attrs[k]
		if !ok || got != v {
			return false
		}
	}
	return true
}

// EventKind discriminates watcher notifications.
type EventKind uint8

// Watcher event kinds.
const (
	Added EventKind = iota + 1
	Removed
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Added:
		return "added"
	case Removed:
		return "removed"
	default:
		return "unknown"
	}
}

// Event notifies a watcher of a registration change. Trace carries the span
// context of the registration that caused it (zero if untraced), so a watcher
// reacting to an arrival — an extension base adapting a node — continues the
// node's announce trace.
type Event struct {
	Kind  EventKind
	Item  ServiceItem
	Trace trace.SpanContext
}

// ErrUnknownService is returned for operations on unregistered services.
var ErrUnknownService = errors.New("registry: unknown service")

type entry struct {
	item    ServiceItem
	leaseID lease.ID
}

type watcher struct {
	id        string
	tmpl      Template
	notify    func(Event)
	onRemoved func()
	leaseID   lease.ID
}

// lookupShards spreads the service-item index; watchers stay global (every
// registration change consults all of them anyway).
const lookupShards = 16

// itemShard holds one slice of the service-item index. Lock order: a shard's
// mu may be held while taking the Lookup's global mu, never the reverse; no
// path holds two shard locks at once.
type itemShard struct {
	mu    sync.Mutex
	items map[string]*entry // by service ID
}

// Lookup is the in-memory lookup service core. Remote access is provided by
// Server/Client in this package. The item index is sharded by a hash of the
// service ID, so registration and lookup traffic from a fleet of nodes does
// not serialise on one lock.
type Lookup struct {
	grantor *lease.Grantor
	shards  []itemShard

	mu       sync.Mutex
	byLease  map[lease.ID]string // lease -> service ID, for expiry routing
	watchers map[string]*watcher
	nextW    int
	m        lookupMetrics
}

func (l *Lookup) shard(serviceID string) *itemShard {
	h := fnv.New32a()
	h.Write([]byte(serviceID))
	return &l.shards[h.Sum32()%uint32(len(l.shards))]
}

// lookupMetrics aggregates service-brokerage traffic; all fields are nil-safe
// no-ops until Instrument.
type lookupMetrics struct {
	registers   *metrics.Counter
	deregisters *metrics.Counter
	lookups     *metrics.Counter
	watches     *metrics.Counter
	events      *metrics.Counter
	services    *metrics.Gauge
	watchers    *metrics.Gauge
}

// Instrument records registrations, deregistrations, template lookups, watch
// subscriptions and delivered watcher events in reg, plus gauges for live
// services and watchers. The lookup's grantor is instrumented too, so lease
// traffic lands in the same registry. A nil reg is a no-op.
func (l *Lookup) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	l.grantor.Instrument(reg)
	n := l.Len() // shard locks precede the global mu in the lock order
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m = lookupMetrics{
		registers:   reg.Counter("registry.registers"),
		deregisters: reg.Counter("registry.deregisters"),
		lookups:     reg.Counter("registry.lookups"),
		watches:     reg.Counter("registry.watches"),
		events:      reg.Counter("registry.events_delivered"),
		services:    reg.Gauge("registry.services"),
		watchers:    reg.Gauge("registry.watchers"),
	}
	l.m.services.Set(int64(n))
	l.m.watchers.Set(int64(len(l.watchers)))
}

// NewLookup returns an empty lookup service on clk.
func NewLookup(clk clock.Clock) *Lookup {
	l := &Lookup{
		grantor:  lease.NewGrantor(clk),
		shards:   make([]itemShard, lookupShards),
		byLease:  make(map[lease.ID]string),
		watchers: make(map[string]*watcher),
	}
	for i := range l.shards {
		l.shards[i].items = make(map[string]*entry)
	}
	return l
}

// Grantor exposes the lease grantor (for sweeping or Start/Stop).
func (l *Lookup) Grantor() *lease.Grantor { return l.grantor }

// Register advertises item for the lease duration. Re-registering an existing
// ID refreshes the item and returns a fresh lease. Watcher events carry the
// span context from ctx (if any), so watchers join the registrant's trace.
func (l *Lookup) Register(ctx context.Context, item ServiceItem, dur time.Duration) (lease.Lease, error) {
	if item.ID == "" || item.Name == "" {
		return lease.Lease{}, errors.New("registry: item needs ID and Name")
	}
	sc, _ := trace.FromContext(ctx)
	s := l.shard(item.ID)
	s.mu.Lock()
	old, refreshed := s.items[item.ID]
	if refreshed {
		delete(s.items, item.ID)
	}
	s.mu.Unlock()
	if refreshed {
		// Refresh: cancel the old lease silently.
		l.mu.Lock()
		delete(l.byLease, old.leaseID)
		l.mu.Unlock()
		_ = l.grantor.Cancel(old.leaseID)
	}

	gl := l.grantor.Grant(ctx, dur, func(id lease.ID) { l.expireLease(id) })

	s.mu.Lock()
	s.items[item.ID] = &entry{item: item, leaseID: gl.ID}
	s.mu.Unlock()
	n := l.Len()
	l.mu.Lock()
	l.byLease[gl.ID] = item.ID
	watchers := l.matchingWatchersLocked(item)
	l.m.registers.Inc()
	l.m.services.Set(int64(n))
	events := l.m.events
	l.mu.Unlock()

	for _, w := range watchers {
		events.Inc()
		w.notify(Event{Kind: Added, Item: item, Trace: sc})
	}
	return gl, nil
}

// Renew extends a registration lease.
func (l *Lookup) Renew(id lease.ID, dur time.Duration) (lease.Lease, error) {
	return l.grantor.Renew(context.Background(), id, dur)
}

// Deregister removes the service with the given service ID.
func (l *Lookup) Deregister(serviceID string) error {
	s := l.shard(serviceID)
	s.mu.Lock()
	e, ok := s.items[serviceID]
	if ok {
		delete(s.items, serviceID)
	}
	s.mu.Unlock()
	if !ok {
		return ErrUnknownService
	}
	_ = l.grantor.Cancel(e.leaseID)
	n := l.Len()
	l.mu.Lock()
	delete(l.byLease, e.leaseID)
	watchers := l.matchingWatchersLocked(e.item)
	l.m.deregisters.Inc()
	l.m.services.Set(int64(n))
	events := l.m.events
	l.mu.Unlock()

	for _, w := range watchers {
		events.Inc()
		w.notify(Event{Kind: Removed, Item: e.item})
	}
	return nil
}

// Find returns all items matching the template, ordered by service ID.
func (l *Lookup) Find(tmpl Template) []ServiceItem {
	l.metricsRef().lookups.Inc()
	var out []ServiceItem
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		for _, e := range s.items {
			if tmpl.Matches(e.item) {
				out = append(out, e.item)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// metricsRef snapshots the metric handles; every field stays a nil-safe no-op
// until Instrument.
func (l *Lookup) metricsRef() lookupMetrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m
}

// Watch registers notify to run for every future registration change
// matching tmpl, under a lease. It returns the watcher id and lease.
func (l *Lookup) Watch(tmpl Template, dur time.Duration, notify func(Event)) (string, lease.Lease) {
	return l.WatchFull(tmpl, dur, notify, nil)
}

// WatchFull is Watch with an additional cleanup callback invoked exactly once
// when the watcher is removed (explicitly or by lease expiry).
func (l *Lookup) WatchFull(tmpl Template, dur time.Duration, notify func(Event), onRemoved func()) (string, lease.Lease) {
	l.mu.Lock()
	l.nextW++
	id := "w" + strconv.Itoa(l.nextW)
	w := &watcher{id: id, tmpl: tmpl, notify: notify, onRemoved: onRemoved}
	l.watchers[id] = w
	l.m.watches.Inc()
	l.m.watchers.Set(int64(len(l.watchers)))
	l.mu.Unlock()

	gl := l.grantor.Grant(context.Background(), dur, func(lease.ID) { l.Unwatch(id) })
	l.mu.Lock()
	w.leaseID = gl.ID
	l.mu.Unlock()
	return id, gl
}

// RenewWatch extends a watcher's lease.
func (l *Lookup) RenewWatch(id string, dur time.Duration) (lease.Lease, error) {
	l.mu.Lock()
	w, ok := l.watchers[id]
	l.mu.Unlock()
	if !ok {
		return lease.Lease{}, lease.ErrUnknownLease
	}
	return l.grantor.Renew(context.Background(), w.leaseID, dur)
}

// Unwatch removes a watcher.
func (l *Lookup) Unwatch(id string) {
	l.mu.Lock()
	w, ok := l.watchers[id]
	if ok {
		delete(l.watchers, id)
		l.m.watchers.Set(int64(len(l.watchers)))
	}
	l.mu.Unlock()
	if ok {
		_ = l.grantor.Cancel(w.leaseID)
		if w.onRemoved != nil {
			w.onRemoved()
		}
	}
}

// Len returns the number of live registrations.
func (l *Lookup) Len() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// ExpireNow sweeps lapsed leases (registrations and watchers).
func (l *Lookup) ExpireNow() int { return l.grantor.ExpireNow() }

func (l *Lookup) expireLease(id lease.ID) {
	l.mu.Lock()
	serviceID, ok := l.byLease[id]
	if ok {
		delete(l.byLease, id)
	}
	l.mu.Unlock()
	if !ok {
		return
	}
	s := l.shard(serviceID)
	s.mu.Lock()
	e := s.items[serviceID]
	if e == nil || e.leaseID != id {
		// Re-registered while the expiry was in flight: the fresh entry owns
		// a different lease and stays.
		s.mu.Unlock()
		return
	}
	delete(s.items, serviceID)
	s.mu.Unlock()

	n := l.Len()
	l.mu.Lock()
	watchers := l.matchingWatchersLocked(e.item)
	l.m.services.Set(int64(n))
	events := l.m.events
	l.mu.Unlock()

	for _, w := range watchers {
		events.Inc()
		w.notify(Event{Kind: Removed, Item: e.item})
	}
}

func (l *Lookup) matchingWatchersLocked(item ServiceItem) []*watcher {
	var out []*watcher
	for _, w := range l.watchers {
		if w.tmpl.Matches(item) {
			out = append(out, w)
		}
	}
	return out
}

func globMatch(pattern, s string) bool {
	if pattern == "*" {
		return true
	}
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == s
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	last := parts[len(parts)-1]
	if !strings.HasSuffix(s, last) {
		return false
	}
	s = s[:len(s)-len(last)]
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		idx := strings.Index(s, mid)
		if idx < 0 {
			return false
		}
		s = s[idx+len(mid):]
	}
	return true
}
