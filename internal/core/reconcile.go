package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/lease"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Anti-entropy reconciliation: the base periodically (and whenever a degraded
// node answers again) asks each node for its installed-extension inventory
// and repairs the drift a partition or crash left behind — re-pushing
// extensions the node is missing, revoking orphans that survived a missed
// revoke, and adopting the receiver's live leases instead of blindly
// re-pushing what is already there.

// MethodInventory asks a receiver for its non-system extension inventory.
const MethodInventory = "midas.inventory"

// Wire types for the reconciliation surface.
type (
	// InventoryItem describes one installed extension with its lease.
	InventoryItem struct {
		Name           string
		Version        int
		BaseAddr       string
		LeaseID        string
		DeadlineMillis int64
	}
	// InventoryResp is a receiver's installed-set inventory.
	InventoryResp struct {
		Node  string
		Items []InventoryItem
	}
	// ReconcileResult summarizes one reconciliation round against one node.
	ReconcileResult struct {
		AtMillis int64
		Err      string   // first error, "" when the round completed
		Repushed []string // extensions missing or outdated at the node
		Revoked  []string // orphans withdrawn (missed revokes)
		Adopted  []string // live receiver leases adopted without a re-push
		Promoted bool     // node returned from degraded
		InSync   bool     // nothing to repair
	}
	// NodeStatus is one node's row in a base status report.
	NodeStatus struct {
		ID            string
		Addr          string
		State         string // "adapted" | "degraded"
		Exts          []string
		LastReconcile ReconcileResult
	}
	// DriftCounters aggregate how much anti-entropy repair the base has done.
	DriftCounters struct {
		Rounds   uint64
		Repushes uint64
		Orphans  uint64
		Adopts   uint64
		Errors   uint64
	}
	// BaseStatusResp is the base's status document, served at /status.
	BaseStatusResp struct {
		Name       string
		Addr       string
		Extensions []string // policy set, name@version
		Nodes      []NodeStatus
		Drift      DriftCounters
	}
)

// reconcileLoop drives periodic anti-entropy rounds until Close.
func (b *Base) reconcileLoop() {
	defer close(b.reconcileDone)
	for {
		select {
		case <-b.stop:
			return
		case <-b.cfg.Clock.After(b.cfg.ReconcileEvery):
			b.ReconcileNow(context.Background())
		}
	}
}

// ReconcileNow runs one anti-entropy round over every adapted and degraded
// node, returning the per-node results keyed by address. The round works on
// a node-table snapshot through fanOut, as a policy change does: up to
// policyFanOut nodes reconcile at once, started in address order.
func (b *Base) ReconcileNow(ctx context.Context) map[string]ReconcileResult {
	if b.closed.Load() {
		return nil
	}
	b.mu.Lock()
	rounds := b.m.reconRounds
	b.stats.Rounds++
	b.mu.Unlock()
	rounds.Inc()

	nodes := b.nodes.snapshot()
	results := make([]ReconcileResult, len(nodes))
	fanOut(len(nodes), func(i int) { results[i] = b.reconcileNode(ctx, nodes[i].addr) })
	out := make(map[string]ReconcileResult, len(nodes))
	for i, e := range nodes {
		out[e.addr] = results[i]
	}
	return out
}

// reconcileNode diffs one node's inventory against the policy set and repairs
// the drift. For a degraded node the inventory call is the probe: while the
// node stays out of reach it fails and nothing is pushed at it (no re-push
// storm), and the probe that finally lands promotes the node back.
func (b *Base) reconcileNode(ctx context.Context, addr string) ReconcileResult {
	res := ReconcileResult{AtMillis: b.cfg.Clock.Now().UnixMilli()}
	tr := b.traceRef()
	rctx, sp := tr.StartSpan(ctx, "base.reconcile")
	sp.Tag("node", addr)

	ictx := transport.WithCallDeadline(rctx, b.cfg.CallTimeout)
	inv, err := transport.Invoke[EmptyResp, InventoryResp](ictx, b.caller, addr, MethodInventory, EmptyResp{})
	ictx.Cancel()
	if err != nil {
		res.Err = err.Error()
		sp.End(err)
		b.noteReconcile(addr, res)
		return res
	}

	s := b.nodes.shard(addr)
	s.mu.Lock()
	n, adapted := s.adapted[addr]
	id, wasDegraded := s.degraded[addr]
	s.mu.Unlock()
	b.mu.Lock()
	desired := append([]SignedExtension(nil), b.extensions...)
	b.mu.Unlock()
	if b.closed.Load() {
		sp.End(nil)
		return res
	}
	if !adapted {
		if !wasDegraded {
			// Released concurrently: nothing to reconcile.
			sp.End(nil)
			return res
		}
		// The inventory answered: the node is back from its partition.
		nodeID := id
		if inv.Node != "" {
			nodeID = inv.Node
		}
		n = newAdaptedNode(nodeID, addr)
		s.mu.Lock()
		if cur, dup := s.adapted[addr]; dup {
			n = cur
		} else {
			s.dropDegraded(addr)
			s.setAdapted(addr, n)
		}
		s.mu.Unlock()
		res.Promoted = true
		b.log("reconcile", nodeID, "", "node reachable again; promoted from degraded")
	}

	// Index what the node holds from this base.
	mine := make(map[string]InventoryItem, len(inv.Items))
	for _, it := range inv.Items {
		if it.BaseAddr == b.cfg.Addr {
			mine[it.Name] = it
		}
	}

	now := b.cfg.Clock.Now()
	var missing []SignedExtension
	for _, signed := range desired {
		ext := &signed.Ext
		it, have := mine[ext.Name]
		delete(mine, ext.Name)
		switch {
		case !have || it.Version < ext.Version:
			// Missing (wiped, expired during the partition) or outdated:
			// collected for one batched re-push below.
			missing = append(missing, signed)
		case it.Version == ext.Version:
			s.mu.Lock()
			_, hasGrant := n.grants[ext.Name]
			s.mu.Unlock()
			if !hasGrant {
				// The node still holds a live lease (e.g. the base crashed or
				// the node just came back): adopt the receiver's lease and
				// deadline instead of re-pushing, unless it is too close to
				// its end to be renewed with a retry.
				deadline := time.UnixMilli(it.DeadlineMillis)
				if !b.adoptable(deadline.Sub(now)) {
					missing = append(missing, signed)
					continue
				}
				g := grantInfo{
					version:  it.Version,
					leaseID:  lease.ID(it.LeaseID),
					dur:      b.cfg.LeaseDur,
					deadline: deadline,
				}
				if b.trackGrant(n, ext.Name, g, deadline.Sub(now), trace.SpanContext{}) {
					res.Adopted = append(res.Adopted, ext.Name)
				}
			} else if it.DeadlineMillis > 0 {
				// A renewal is already scheduled: the receiver's deadline is
				// the truth — adopt it into the checkpoint.
				s.mu.Lock()
				if g := n.grants[ext.Name]; g != nil && g.deadline.UnixMilli() != it.DeadlineMillis {
					g.deadline = time.UnixMilli(it.DeadlineMillis)
					b.journalNode(n)
				}
				s.mu.Unlock()
			}
			// A newer version at the node than in the policy set is left
			// alone: reconciliation never downgrades.
		}
	}

	// Whatever remains came from this base but is no longer desired: an
	// orphan of a revoke that was lost during the partition.
	orphans := make([]string, 0, len(mine))
	for name := range mine {
		orphans = append(orphans, name)
	}
	sort.Strings(orphans)
	for _, name := range orphans {
		b.stopTracking(addr, name)
	}

	// The whole repair — missing re-pushes and orphan revokes — rides one apply.
	installErrs, revokeErrs := b.applyToNode(rctx, n, missing, orphans)
	for i, signed := range missing {
		if err := installErrs[i]; err != nil {
			if res.Err == "" {
				res.Err = err.Error()
			}
			b.log("push", n.id, signed.Ext.Name, "failed: "+err.Error())
			continue
		}
		res.Repushed = append(res.Repushed, signed.Ext.Name)
	}
	for i, name := range orphans {
		if err := revokeErrs[i]; err != nil {
			if res.Err == "" {
				res.Err = err.Error()
			}
			b.log("revoke", n.id, name, "failed: "+err.Error())
			continue
		}
		res.Revoked = append(res.Revoked, name)
		b.log("revoke", n.id, name, "orphan cleaned by reconciliation")
	}

	res.InSync = res.Err == "" && len(res.Repushed) == 0 && len(res.Revoked) == 0 &&
		len(res.Adopted) == 0 && !res.Promoted
	sp.Annotatef("repushed=%d revoked=%d adopted=%d promoted=%v",
		len(res.Repushed), len(res.Revoked), len(res.Adopted), res.Promoted)
	sp.End(nil)
	b.noteReconcile(addr, res)
	return res
}

// noteReconcile records a round's outcome for status reporting and bumps the
// drift counters.
func (b *Base) noteReconcile(addr string, res ReconcileResult) {
	b.mu.Lock()
	b.lastReconcile[addr] = res
	b.stats.Repushes += uint64(len(res.Repushed))
	b.stats.Orphans += uint64(len(res.Revoked))
	b.stats.Adopts += uint64(len(res.Adopted))
	if res.Err != "" {
		b.stats.Errors++
	}
	m := b.m
	b.mu.Unlock()
	m.reconRepushes.Add(uint64(len(res.Repushed)))
	m.reconOrphans.Add(uint64(len(res.Revoked)))
	m.reconAdopts.Add(uint64(len(res.Adopted)))
	if res.Err != "" {
		m.reconErrors.Inc()
	}
}

// Status reports the base's per-node state — adapted or degraded, held
// extensions, last reconcile outcome — plus the aggregate drift counters.
// Served at /status for midasctl status.
func (b *Base) Status() BaseStatusResp {
	b.mu.Lock()
	resp := BaseStatusResp{Name: b.cfg.Name, Addr: b.cfg.Addr, Drift: b.stats}
	for _, e := range b.extensions {
		resp.Extensions = append(resp.Extensions, fmt.Sprintf("%s@v%d", e.Ext.Name, e.Ext.Version))
	}
	last := make(map[string]ReconcileResult, len(b.lastReconcile))
	for addr, r := range b.lastReconcile {
		last[addr] = r
	}
	b.mu.Unlock()
	for _, e := range b.nodes.snapshot() {
		st := NodeStatus{
			ID:            e.id,
			Addr:          e.addr,
			State:         "degraded",
			LastReconcile: last[e.addr],
		}
		if e.n != nil {
			st.State, st.Exts = "adapted", b.extNames(e.n)
		}
		resp.Nodes = append(resp.Nodes, st)
	}
	return resp
}

// extNames lists the extensions the base keeps alive at n, sorted; empty,
// not nil, when there are none.
func (b *Base) extNames(n *adaptedNode) []string {
	s := b.nodes.shard(n.addr)
	s.mu.Lock()
	exts := make([]string, 0, len(n.grants))
	for name := range n.grants {
		exts = append(exts, name)
	}
	s.mu.Unlock()
	sort.Strings(exts)
	return exts
}
