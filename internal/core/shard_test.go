package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/transport"
)

// revive undoes crash.
func (c *stormCaller) revive(node string) { c.mu.Lock(); delete(c.crashed, node); c.mu.Unlock() }

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

// TestNodeGaugesMatchShardsAfterChurn adapts, releases, degrades and
// recovers nodes from concurrent goroutines, and then requires the node
// table's counts and the base.adapted_nodes and base.degraded_nodes gauges
// to equal a full scan of the shards.
func TestNodeGaugesMatchShardsAfterChurn(t *testing.T) {
	const workers, nodesPer, rounds = 4, 6, 5
	clk := clock.NewManual(time.Unix(1000, 0))
	caller := newStormCaller()
	breaker := transport.NewBreakerSet(1, transport.BreakerConfig{
		Threshold: 1,
		Cooldown:  time.Millisecond,
		Jitter:    0,
		Clock:     clk,
	})
	b, reg := newStormBase(t, clk, caller, breaker, 8, 1)
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
					// Adapting a node degraded in an earlier round recovers
					// it: the reconcile probe lands once the cooldown passed.
					caller.revive(addr)
					clk.Advance(time.Second)
					if err := b.AdaptNode(addr, addr); err != nil {
						errs <- err
						return
					}
					switch (r + i) % 3 {
					case 0: // depart
						b.Release(addr)
					case 1: // degrade: a failed call opens the node's circuit
						caller.crash(addr)
						_ = b.caller.Call(context.Background(), addr, MethodInventory, EmptyResp{}, &InventoryResp{})
						b.nodeDeparted(addr)
						if i%2 == 0 { // and recover: the probe after the cooldown lands
							caller.revive(addr)
							clk.Advance(time.Second)
							if res := b.reconcileNode(context.Background(), addr); res.Err != "" || !res.Promoted {
								errs <- fmt.Errorf("%s: reconcile %+v, want a promotion", addr, res)
								return
							}
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
	if got := b.nodes.nAdapted.Load(); got != adapted {
		t.Errorf("table counts %d adapted nodes, shards hold %d", got, adapted)
	}
	if got := b.nodes.nDegraded.Load(); got != degraded {
		t.Errorf("table counts %d degraded nodes, shards hold %d", got, degraded)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["base.adapted_nodes"]; got != adapted {
		t.Errorf("base.adapted_nodes = %d, shards hold %d", got, adapted)
	}
	if got := snap.Gauges["base.degraded_nodes"]; got != degraded {
		t.Errorf("base.degraded_nodes = %d, shards hold %d", got, degraded)
	}
}
