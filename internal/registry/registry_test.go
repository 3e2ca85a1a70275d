package registry

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func item(id, name string, attrs map[string]string) ServiceItem {
	return ServiceItem{ID: id, Name: name, Addr: "addr-" + id, Attrs: attrs}
}

func TestRegisterFind(t *testing.T) {
	l := NewLookup(clock.NewManual(time.Unix(0, 0)))
	if _, err := l.Register(context.Background(), item("r1", "midas.adaptation", map[string]string{"node": "robot1"}), time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Register(context.Background(), item("b1", "midas.base", nil), time.Minute); err != nil {
		t.Fatal(err)
	}

	all := l.Find(Template{})
	if len(all) != 2 {
		t.Fatalf("Find(all) = %d items", len(all))
	}
	adapt := l.Find(Template{Name: "midas.adaptation"})
	if len(adapt) != 1 || adapt[0].ID != "r1" {
		t.Fatalf("Find(adaptation) = %v", adapt)
	}
	glob := l.Find(Template{Name: "midas.*"})
	if len(glob) != 2 {
		t.Fatalf("Find(midas.*) = %d", len(glob))
	}
	attr := l.Find(Template{Attrs: map[string]string{"node": "robot1"}})
	if len(attr) != 1 || attr[0].ID != "r1" {
		t.Fatalf("Find(attr) = %v", attr)
	}
	none := l.Find(Template{Name: "other"})
	if len(none) != 0 {
		t.Fatalf("Find(other) = %v", none)
	}
}

func TestRegisterValidation(t *testing.T) {
	l := NewLookup(clock.NewManual(time.Unix(0, 0)))
	if _, err := l.Register(context.Background(), ServiceItem{Name: "x"}, time.Minute); err == nil {
		t.Error("missing ID should fail")
	}
	if _, err := l.Register(context.Background(), ServiceItem{ID: "x"}, time.Minute); err == nil {
		t.Error("missing Name should fail")
	}
}

func TestReregisterRefreshes(t *testing.T) {
	l := NewLookup(clock.NewManual(time.Unix(0, 0)))
	if _, err := l.Register(context.Background(), item("r1", "svc", map[string]string{"v": "1"}), time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Register(context.Background(), item("r1", "svc", map[string]string{"v": "2"}), time.Minute); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
	got := l.Find(Template{Name: "svc"})
	if got[0].Attrs["v"] != "2" {
		t.Errorf("re-registration did not refresh attrs: %v", got[0].Attrs)
	}
}

func TestLeaseExpiryRemovesItem(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	l := NewLookup(clk)
	if _, err := l.Register(context.Background(), item("r1", "svc", nil), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	l.ExpireNow()
	if l.Len() != 1 {
		t.Fatal("item expired early")
	}
	clk.Advance(6 * time.Second)
	l.ExpireNow()
	if l.Len() != 0 {
		t.Fatal("item not expired")
	}
}

func TestRenewExtendsRegistration(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	l := NewLookup(clk)
	gl, err := l.Register(context.Background(), item("r1", "svc", nil), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second)
	if _, err := l.Renew(gl.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second)
	l.ExpireNow()
	if l.Len() != 1 {
		t.Fatal("renewed registration expired")
	}
}

func TestWatchNotifiesAddAndRemove(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	l := NewLookup(clk)
	var mu sync.Mutex
	var events []Event
	l.Watch(Template{Name: "midas.adaptation"}, time.Hour, func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})

	if _, err := l.Register(context.Background(), item("r1", "midas.adaptation", nil), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Register(context.Background(), item("x", "other", nil), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := l.Deregister("r1"); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	if events[0].Kind != Added || events[0].Item.ID != "r1" {
		t.Errorf("event[0] = %+v", events[0])
	}
	if events[1].Kind != Removed || events[1].Item.ID != "r1" {
		t.Errorf("event[1] = %+v", events[1])
	}
}

func TestWatchSeesLeaseExpiryAsRemoval(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	l := NewLookup(clk)
	var mu sync.Mutex
	var kinds []EventKind
	l.Watch(Template{}, time.Hour, func(ev Event) {
		mu.Lock()
		kinds = append(kinds, ev.Kind)
		mu.Unlock()
	})
	if _, err := l.Register(context.Background(), item("r1", "svc", nil), time.Second); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	l.ExpireNow()
	mu.Lock()
	defer mu.Unlock()
	if len(kinds) != 2 || kinds[0] != Added || kinds[1] != Removed {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestUnwatchStopsNotifications(t *testing.T) {
	l := NewLookup(clock.NewManual(time.Unix(0, 0)))
	count := 0
	removed := false
	id, _ := l.WatchFull(Template{}, time.Hour, func(Event) { count++ }, func() { removed = true })
	l.Unwatch(id)
	if !removed {
		t.Error("onRemoved did not run")
	}
	if _, err := l.Register(context.Background(), item("r1", "svc", nil), time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Error("unwatched watcher notified")
	}
}

func TestWatcherLeaseExpiry(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	l := NewLookup(clk)
	count := 0
	l.Watch(Template{}, time.Second, func(Event) { count++ })
	clk.Advance(2 * time.Second)
	l.ExpireNow()
	if _, err := l.Register(context.Background(), item("r1", "svc", nil), time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Error("expired watcher notified")
	}
}

func TestTemplateMatching(t *testing.T) {
	it := item("a", "midas.adaptation", map[string]string{"hall": "h1", "node": "r1"})
	tests := []struct {
		tmpl Template
		want bool
	}{
		{Template{}, true},
		{Template{Name: "midas.adaptation"}, true},
		{Template{Name: "midas.*"}, true},
		{Template{Name: "*.adaptation"}, true},
		{Template{Name: "other"}, false},
		{Template{Attrs: map[string]string{"hall": "h1"}}, true},
		{Template{Attrs: map[string]string{"hall": "h2"}}, false},
		{Template{Attrs: map[string]string{"missing": ""}}, false},
		{Template{Name: "midas.*", Attrs: map[string]string{"node": "r1"}}, true},
	}
	for i, tt := range tests {
		if got := tt.tmpl.Matches(it); got != tt.want {
			t.Errorf("case %d: Matches = %v, want %v", i, got, tt.want)
		}
	}
}

func TestDeregisterUnknown(t *testing.T) {
	l := NewLookup(clock.NewManual(time.Unix(0, 0)))
	if err := l.Deregister("ghost"); err == nil {
		t.Fatal("want error")
	}
}
