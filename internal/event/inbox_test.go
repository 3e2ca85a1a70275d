package event

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/testutil"
	"repro/internal/transport"
)

func note(src string, seq int64) Notification {
	return Notification{Source: src, Seq: seq, Kind: "k"}
}

// A scripted burst of duplicated and reordered notifications comes out the
// other side exactly once each, in sequence order.
func TestInboxDedupesAndReorders(t *testing.T) {
	var applied []int64
	in := NewInbox(func(n Notification) { applied = append(applied, n.Seq) })
	reg := metrics.New()
	in.Instrument(reg)

	fresh := 0
	for _, seq := range []int64{2, 1, 1, 3, 5, 5, 4} {
		if in.Deliver(note("lookup-1", seq)) {
			fresh++
		}
	}
	want := []int64{1, 2, 3, 4, 5}
	if len(applied) != len(want) {
		t.Fatalf("applied %v, want %v", applied, want)
	}
	for i := range want {
		if applied[i] != want[i] {
			t.Fatalf("applied %v, want %v", applied, want)
		}
	}
	if fresh != 5 {
		t.Fatalf("fresh = %d, want 5", fresh)
	}
	snap := reg.Snapshot()
	if snap.Counters["event.inbox_applied"] != 5 {
		t.Fatalf("inbox_applied = %d", snap.Counters["event.inbox_applied"])
	}
	if snap.Counters["event.inbox_duplicates"] != 2 {
		t.Fatalf("inbox_duplicates = %d", snap.Counters["event.inbox_duplicates"])
	}
	if snap.Counters["event.inbox_reorders"] == 0 {
		t.Fatal("reorders not counted")
	}
	if in.Pending() != 0 {
		t.Fatalf("pending = %d after the window drained", in.Pending())
	}
}

// Sequence numbering is per source: the same Seq from two sources is two
// distinct notifications.
func TestInboxTracksSourcesIndependently(t *testing.T) {
	count := 0
	in := NewInbox(func(Notification) { count++ })
	in.Deliver(note("a", 1))
	in.Deliver(note("b", 1))
	in.Deliver(note("a", 1)) // duplicate
	if count != 2 {
		t.Fatalf("applied = %d, want 2", count)
	}
}

// A gap never filled keeps later notifications held back.
func TestInboxHoldsBackAcrossGap(t *testing.T) {
	count := 0
	in := NewInbox(func(Notification) { count++ })
	in.Deliver(note("a", 2))
	in.Deliver(note("a", 3))
	if count != 0 {
		t.Fatalf("applied %d before the gap filled", count)
	}
	if in.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", in.Pending())
	}
	in.Deliver(note("a", 1))
	if count != 3 || in.Pending() != 0 {
		t.Fatalf("applied=%d pending=%d after gap filled", count, in.Pending())
	}
}

// End to end over a duplicating simulated link: every published event takes
// effect exactly once at the listener despite each datagram arriving twice.
func TestInboxExactlyOnceOverDuplicatingLink(t *testing.T) {
	net := simnet.New(nil, 5)
	defer net.Close()
	net.SetLink("lookup-1", "base-1", simnet.LinkProfile{Dup: 1})

	var applied atomic.Int64
	in := NewInbox(func(Notification) { applied.Add(1) })
	reg := metrics.New()
	in.Instrument(reg)
	mux := transport.NewMux()
	in.Register(mux, "notify")
	stop, err := net.Serve("base-1", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	d := NewDispatcher("lookup-1", net.Node("lookup-1"), nil)
	defer d.Close()
	d.Subscribe("base-1", "notify", time.Minute)
	const events = 20
	for i := 0; i < events; i++ {
		d.Publish(context.Background(), "changed", testutil.WireReq{N: int64(i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for applied.Load() != events {
		if time.Now().After(deadline) {
			t.Fatalf("applied = %d, want %d", applied.Load(), events)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // absorb trailing duplicates
	if applied.Load() != events {
		t.Fatalf("applied = %d after duplicates, want exactly %d", applied.Load(), events)
	}
	if dups := reg.Snapshot().Counters["event.inbox_duplicates"]; dups != events {
		t.Fatalf("inbox_duplicates = %d, want %d (every event duplicated)", dups, events)
	}
}
