package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// revive undoes crash.
func (c *stormCaller) revive(node string) { c.mu.Lock(); delete(c.crashed, node); c.mu.Unlock() }

// get returns the adapted node at addr, or nil.
func (t *nodeTable) get(addr string) *adaptedNode {
	s := t.shard(addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.adapted[addr]
}

// scanCounts counts the adapted and degraded nodes shard by shard.
func (t *nodeTable) scanCounts() (adapted, degraded int64) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		adapted += int64(len(s.adapted))
		degraded += int64(len(s.degraded))
		s.mu.Unlock()
	}
	return adapted, degraded
}

// TestNodeGaugesMatchShardsAfterChurn adapts, releases, degrades, recovers
// and releases degraded nodes from concurrent goroutines, and then requires
// the node table's counts and the base.adapted_nodes and base.degraded_nodes
// gauges to equal a full scan of the shards. It checks again after releasing
// every node still degraded: a release logs nothing for a node that is only
// degraded, so the gauges must follow the table without an activity entry.
func TestNodeGaugesMatchShardsAfterChurn(t *testing.T) {
	const workers, nodesPer, rounds = 4, 6, 5
	clk := clock.NewManual(time.Unix(1000, 0))
	caller := newStormCaller()
	b, reg := newStormBase(t, clk, caller, time.Hour, 8, 1)
	b.nodes = newNodeTable(3) // before any node is adapted; fewer shards than nodes

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < nodesPer; i++ {
					addr := fmt.Sprintf("robot-%d-%d", w, i)
					// Adapting a node degraded in an earlier round recovers it.
					caller.revive(addr)
					clk.Advance(time.Second)
					if err := b.AdaptNode(addr, addr); err != nil {
						errs <- err
						return
					}
					switch (r + i) % 3 {
					case 0: // depart
						b.Release(addr)
					case 1: // degrade: the node's renewal cycle gets no answer
						caller.crash(addr)
						b.nodeDeparted(addr, b.caller.Call(context.Background(), addr, MethodInventory, EmptyResp{}, &InventoryResp{}))
						switch {
						case i%2 == 0: // and recover: the next probe lands
							caller.revive(addr)
							if res := b.reconcileNode(context.Background(), addr); res.Err != "" || !res.Promoted {
								errs <- fmt.Errorf("%s: reconcile %+v, want a promotion", addr, res)
								return
							}
						case w%2 == 1: // or release while degraded
							b.Release(addr)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	adapted, degraded := b.nodes.scanCounts()
	if adapted == 0 || degraded == 0 {
		t.Fatalf("scan found %d adapted and %d degraded nodes; the churn should leave both", adapted, degraded)
	}
	checkNodeGauges(t, "after the churn", b, reg)
	for _, addr := range b.Degraded() {
		b.Release(addr)
	}
	if _, degraded := b.nodes.scanCounts(); degraded != 0 {
		t.Fatalf("scan found %d degraded nodes after releasing them all", degraded)
	}
	checkNodeGauges(t, "after releasing the degraded nodes", b, reg)
}

// checkNodeGauges requires the node table's counts and both node gauges to
// equal a full scan of the shards.
func checkNodeGauges(t *testing.T, stage string, b *Base, reg *metrics.Registry) {
	t.Helper()
	adapted, degraded := b.nodes.scanCounts()
	if got := b.nodes.nAdapted.Load(); got != adapted {
		t.Errorf("%s: table counts %d adapted nodes, shards hold %d", stage, got, adapted)
	}
	if got := b.nodes.nDegraded.Load(); got != degraded {
		t.Errorf("%s: table counts %d degraded nodes, shards hold %d", stage, got, degraded)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["base.adapted_nodes"]; got != adapted {
		t.Errorf("%s: base.adapted_nodes = %d, shards hold %d", stage, got, adapted)
	}
	if got := snap.Gauges["base.degraded_nodes"]; got != degraded {
		t.Errorf("%s: base.degraded_nodes = %d, shards hold %d", stage, got, degraded)
	}
}

// TestStatusDocumentFromSnapshot pins the /status document a node-table
// snapshot renders: nodes sorted by address, an adapted node's extensions
// sorted and "[]" when it holds none, and a degraded node with no extension
// list.
func TestStatusDocumentFromSnapshot(t *testing.T) {
	clk := clock.NewManual(time.Unix(1000, 0))
	caller := newStormCaller()
	b, _ := newStormBase(t, clk, caller, time.Hour, 8, 1)
	for _, addr := range []string{"robot-d", "robot-b"} {
		if err := b.AdaptNode("id-"+addr, addr); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"telemetry", "policy"} {
		if err := b.AddExtension(noopExt(name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, addr := range []string{"robot-c", "robot-a"} {
		if err := b.AdaptNode("id-"+addr, addr); err != nil {
			t.Fatal(err)
		}
	}
	b.stopTracking("robot-c", "policy")
	b.stopTracking("robot-c", "telemetry")
	caller.crash("robot-d")
	b.nodeDeparted("robot-d", b.caller.Call(context.Background(), "robot-d", MethodInventory, EmptyResp{}, &InventoryResp{}))

	got, err := json.Marshal(b.Status().Nodes)
	if err != nil {
		t.Fatal(err)
	}
	const never = `"LastReconcile":{"AtMillis":0,"Err":"","Repushed":null,"Revoked":null,"Adopted":null,"Promoted":false,"InSync":false}`
	want := `[` +
		`{"ID":"id-robot-a","Addr":"robot-a","State":"adapted","Exts":["policy","telemetry"],` + never + `},` +
		`{"ID":"id-robot-b","Addr":"robot-b","State":"adapted","Exts":["policy","telemetry"],` + never + `},` +
		`{"ID":"id-robot-c","Addr":"robot-c","State":"adapted","Exts":[],` + never + `},` +
		`{"ID":"id-robot-d","Addr":"robot-d","State":"degraded","Exts":null,` + never + `}]`
	if string(got) != want {
		t.Errorf("status nodes:\n got %s\nwant %s", got, want)
	}
}
