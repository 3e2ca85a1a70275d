package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/lease"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Batched RPC surface: at fleet scale the base coalesces per-node traffic —
// all of a node's due lease renewals ride one midas.renewBatch call, and every
// change the base makes to a node (an adapt's policy set, one pushed or
// revoked extension, a reconcile diff) rides one midas.applyBatch call. Every
// receiver serves the batch methods; a peer that answers one with ErrNoMethod
// fails that renewal or change like any other error.

// RPC method names of the batch surface.
const (
	MethodRenewBatch = "midas.renewBatch"
	MethodApplyBatch = "midas.applyBatch"
)

// Wire types for the batch surface.
type (
	// RenewBatchReq renews several leases at one node in one exchange.
	// WantObs asks the node to piggyback its observability delta on the
	// response.
	RenewBatchReq struct {
		Items   []RenewExtReq
		WantObs bool
	}
	// RenewItemResp is one lease's renewal outcome; Err is the remote error
	// text ("" on success) so one bad lease does not fail its batch-mates.
	RenewItemResp struct {
		DurMillis int64
		Err       string
	}
	// RenewBatchResp carries the per-item outcomes, aligned with the request.
	// Obs is the piggybacked observability delta (fleet.go), present only
	// when the request asked for it.
	RenewBatchResp struct {
		Items []RenewItemResp
		Obs   *ObsReport
	}
	// ApplyBatchReq bundles the installs and revokes the base sends one node
	// at a time: an adapt round, a policy change or a reconcile diff.
	ApplyBatchReq struct {
		Installs []InstallReq
		Revokes  []string
	}
	// InstallItemResp is one install's outcome.
	InstallItemResp struct {
		LeaseID string
		Err     string
	}
	// RevokeItemResp is one revoke's outcome; revoking an extension that is
	// already gone succeeds, so a base retrying a revoke whose response was
	// lost stays idempotent.
	RevokeItemResp struct {
		Err string
	}
	// ApplyBatchResp carries per-item outcomes, aligned with the request.
	ApplyBatchResp struct {
		Installs []InstallItemResp
		Revokes  []RevokeItemResp
	}
)

// serveBatch registers the receiver's batch endpoints on mux.
func (r *Receiver) serveBatch(mux *transport.Mux) {
	transport.Register(mux, MethodRenewBatch, func(ctx context.Context, req RenewBatchReq) (RenewBatchResp, error) {
		resp := RenewBatchResp{Items: make([]RenewItemResp, len(req.Items))}
		for i, it := range req.Items {
			l, err := r.renewLease(ctx, lease.ID(it.LeaseID), time.Duration(it.DurMillis)*time.Millisecond)
			if err != nil {
				resp.Items[i].Err = err.Error()
				continue
			}
			resp.Items[i].DurMillis = l.Duration.Milliseconds()
		}
		if req.WantObs {
			resp.Obs = r.obsReport()
		}
		return resp, nil
	})
	transport.Register(mux, MethodApplyBatch, func(ctx context.Context, req ApplyBatchReq) (ApplyBatchResp, error) {
		resp := ApplyBatchResp{
			Installs: make([]InstallItemResp, len(req.Installs)),
			Revokes:  make([]RevokeItemResp, len(req.Revokes)),
		}
		for i, ins := range req.Installs {
			id, err := r.InstallCtx(ctx, ins.Signed, ins.BaseAddr, time.Duration(ins.DurMillis)*time.Millisecond)
			if err != nil {
				resp.Installs[i].Err = err.Error()
				continue
			}
			resp.Installs[i].LeaseID = string(id)
		}
		for i, name := range req.Revokes {
			if err := r.Withdraw(ctx, name); err != nil && !errors.Is(err, ErrNotInstalled) {
				resp.Revokes[i].Err = err.Error()
			}
		}
		return resp, nil
	})
}

// renewNodeBatch is the scheduler's BatchRenewFunc: it renews every due lease
// held at node, storing each outcome in out. A single due lease keeps the
// singleton midas.renew call (and its familiar one-span-per-renewal trace
// shape); multiple due leases coalesce into one midas.renewBatch call. A
// call-level error fails the whole batch — the scheduler's retry pacing takes
// over from there.
//
// The call costs the base a fixed number of allocations whatever the batch's
// size: its call context (deadline, span context and, on the in-proc fabric,
// the peer stamp, in one), the request body, and for a sampled-out trace the
// root span's IDs. Request, response and per-item metadata are pooled, and a
// sampled-out item span is only counted.
func (b *Base) renewNodeBatch(node string, items []lease.BatchItem, out []lease.BatchResult) error {
	rc := getRenewCall()
	defer putRenewCall(rc)
	metas, ok := b.renewMeta(node, items, rc.metas[:0])
	rc.metas = metas
	if !ok {
		return fmt.Errorf("core: node %s is no longer tracked", node)
	}
	if len(items) == 1 {
		out[0] = b.renewOne(node, items[0].ID, metas[0])
		return nil
	}

	m, tr, wantObs := b.renewRefs()
	sp := tr.StartRootSpan("lease.renewBatch")
	sp.Tag("node", node)
	// A tag, not an annotation: tags on a sampled-out span are free (the pool
	// keeps their backing array), while Annotatef pays fmt on every batch.
	sp.Tag("leases", b.countTag(len(items)))
	req, resp := &rc.batchReq, &rc.batchResp
	req.WantObs = wantObs
	for _, it := range items {
		req.Items = append(req.Items, RenewExtReq{LeaseID: string(it.ID), DurMillis: b.cfg.LeaseDur.Milliseconds()})
	}
	// The call runs under this batch span. Besides the trace tree reading
	// right, a sampled-out rpc.call child rides the context's decision
	// instead of minting a root trace ID per call.
	rctx := transport.WithCallSpan(context.Background(), b.cfg.CallTimeout, sp.Context())
	err := b.caller.Call(rctx, node, MethodRenewBatch, req, resp)
	rctx.Cancel()
	sp.End(err)
	if err != nil {
		return err
	}
	m.renewBatches.Inc()
	m.renewBatchLeases.Add(uint64(len(items)))
	b.mergeObs(node, resp.Obs)

	for i, it := range items {
		out[i] = lease.BatchResult{ID: it.ID}
		var ierr error
		if i >= len(resp.Items) {
			ierr = fmt.Errorf("core: renew batch to %s: truncated response", node)
		} else if resp.Items[i].Err != "" {
			ierr = transport.NewRemoteError(MethodRenewBatch, resp.Items[i].Err)
		} else {
			out[i].Granted = time.Duration(resp.Items[i].DurMillis) * time.Millisecond
			if out[i].Granted <= 0 {
				out[i].Granted = b.cfg.LeaseDur
			}
		}
		out[i].Err = ierr
		// Each lease's renewal is still a span of the trace that installed
		// the extension, batched or not.
		meta := &metas[i]
		tr.Child(meta.sc, "lease.renew", ierr, trace.Tag{Key: "ext", Value: meta.ext}, trace.Tag{Key: "node", Value: meta.nodeID})
	}
	return nil
}

// countTag formats a renewal batch's lease count without allocating for any
// batch the scheduler sends (at most RenewBatch leases).
func (b *Base) countTag(n int) string {
	if n < len(b.countTags) {
		return b.countTags[n]
	}
	return strconv.Itoa(n)
}

// renewCall holds one renewal exchange's request, response and per-lease
// trace metadata. The base renews every lease of the fleet once per window,
// so they are pooled: passing pooled pointers to the Caller spares boxing the
// request and the response per call, and the batch request's Items, the
// batch response's decoded Items and the metadata keep their capacity across
// calls. A Caller decodes into the response before it returns and keeps
// neither, so the pair is free to reuse once the call is over.
type renewCall struct {
	batchReq  RenewBatchReq
	batchResp RenewBatchResp
	oneReq    RenewExtReq
	oneResp   RenewExtResp
	metas     []renewItemMeta
}

var renewCalls = sync.Pool{New: func() any { return new(renewCall) }}

func getRenewCall() *renewCall { return renewCalls.Get().(*renewCall) }

// putRenewCall clears rc, keeping the slices' capacity but no strings or
// reports from the call, and pools it.
func putRenewCall(rc *renewCall) {
	clear(rc.batchReq.Items)
	clear(rc.batchResp.Items)
	clear(rc.metas)
	*rc = renewCall{
		batchReq:  RenewBatchReq{Items: rc.batchReq.Items[:0]},
		batchResp: RenewBatchResp{Items: rc.batchResp.Items[:0]},
		metas:     rc.metas[:0],
	}
	renewCalls.Put(rc)
}

// renewMeta snapshots per-lease trace metadata under the node's shard lock,
// appending to meta one entry per item. Each item names the extension its
// lease was added under, so one lookup in the node's grants finds it.
func (b *Base) renewMeta(node string, items []lease.BatchItem, meta []renewItemMeta) ([]renewItemMeta, bool) {
	s := b.nodes.shard(node)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.adapted[node]
	if n == nil {
		return meta, false
	}
	for _, it := range items {
		var m renewItemMeta
		if g := n.grants[it.Name]; g != nil && g.leaseID == it.ID {
			m = renewItemMeta{ext: it.Name, nodeID: n.id, sc: g.sc}
		}
		meta = append(meta, m)
	}
	return meta, true
}

type renewItemMeta struct {
	ext    string
	nodeID string
	sc     trace.SpanContext
}

// renewOne performs a singleton midas.renew, preserving the pre-batching
// trace shape: one "lease.renew" span per renewal, a child of the push that
// installed the extension.
func (b *Base) renewOne(node string, id lease.ID, meta renewItemMeta) lease.BatchResult {
	tr := b.traceRef()
	rc := getRenewCall()
	defer putRenewCall(rc)
	rc.oneReq = RenewExtReq{LeaseID: string(id), DurMillis: b.cfg.LeaseDur.Milliseconds()}
	// The call context carries the push's span, so a sampled-out renewal
	// span runs on it as is, with no context of its own.
	rctx := transport.WithCallSpan(context.Background(), b.cfg.CallTimeout, meta.sc)
	lctx, lsp := tr.StartSpan(rctx, "lease.renew")
	lsp.Tag("ext", meta.ext)
	lsp.Tag("node", meta.nodeID)
	err := b.caller.Call(lctx, node, MethodRenewE, &rc.oneReq, &rc.oneResp)
	rctx.Cancel()
	lsp.End(err)
	if err != nil {
		return lease.BatchResult{ID: id, Err: err}
	}
	granted := time.Duration(rc.oneResp.DurMillis) * time.Millisecond
	if granted <= 0 {
		granted = b.cfg.LeaseDur
	}
	return lease.BatchResult{ID: id, Granted: granted}
}

// applyToNode delivers installs, signed forms from the policy set, and
// revokes to one node in one midas.applyBatch exchange: every change the base
// makes to a node rides it, a push of one extension included. It returns the
// per-item outcomes, aligned with installs and revokes. Push successes are
// logged (and counted) here, push failures and revoke outcomes are the
// caller's to log.
//
// The apply span carries its non-zero item counts as tags, not an
// annotation: tags on a sampled-out span are free, while Annotatef pays fmt
// on every push.
func (b *Base) applyToNode(ctx context.Context, n *adaptedNode, installs []SignedExtension, revokes []string) (installErrs, revokeErrs []error) {
	installErrs = make([]error, len(installs))
	revokeErrs = make([]error, len(revokes))
	if len(installs)+len(revokes) == 0 {
		return installErrs, revokeErrs
	}
	req := ApplyBatchReq{Installs: make([]InstallReq, len(installs)), Revokes: revokes}
	for i, signed := range installs {
		req.Installs[i] = InstallReq{
			Signed:    signed,
			BaseAddr:  b.cfg.Addr,
			DurMillis: b.cfg.LeaseDur.Milliseconds(),
		}
	}

	m := b.metricsRef()
	tr := b.traceRef()
	pctx, sp := tr.StartSpan(ctx, "base.apply")
	sp.Tag("node", n.id)
	// Only non-zero counts: the span keeps to two tags (node and one count),
	// the size its tag slice starts at.
	if k := len(req.Installs); k > 0 {
		sp.Tag("installs", strconv.Itoa(k))
	}
	if k := len(req.Revokes); k > 0 {
		sp.Tag("revokes", strconv.Itoa(k))
	}
	ictx := transport.WithCallDeadline(pctx, b.cfg.CallTimeout)
	resp, err := transport.Invoke[ApplyBatchReq, ApplyBatchResp](ictx, b.caller, n.addr, MethodApplyBatch, req)
	ictx.Cancel()
	// The installs' leases keep the apply's identity, which their renewals
	// and revokes join. Capture it before End: a sampled-out span is recycled
	// there, and Context on the recycled handle would mint an ID for whatever
	// span owns the pooled storage next. A revoke-only apply skips it, which
	// spares a sampled-out span minting an ID.
	var applySC trace.SpanContext
	if len(req.Installs) > 0 {
		applySC = sp.Context()
	}
	sp.End(err)
	if err != nil {
		err = fmt.Errorf("core: apply batch to %s: %w", n.addr, err)
		for i := range installErrs {
			installErrs[i] = err
		}
		for i := range revokeErrs {
			revokeErrs[i] = err
		}
		return installErrs, revokeErrs
	}
	m.pushBatches.Inc()

	for i := range installs {
		ext := &installs[i].Ext
		switch {
		case i >= len(resp.Installs):
			installErrs[i] = fmt.Errorf("core: apply batch to %s: truncated response", n.addr)
			continue
		case resp.Installs[i].Err != "":
			installErrs[i] = fmt.Errorf("core: push %q to %s: %w", ext.Name, n.addr, transport.NewRemoteError(MethodApplyBatch, resp.Installs[i].Err))
			continue
		}
		b.log("push", n.id, ext.Name, "")
		g := grantInfo{
			version:  ext.Version,
			leaseID:  lease.ID(resp.Installs[i].LeaseID),
			dur:      b.cfg.LeaseDur,
			deadline: b.cfg.Clock.Now().Add(b.cfg.LeaseDur),
		}
		if !b.trackGrant(n, ext.Name, g, b.cfg.LeaseDur, applySC) {
			// The node departed (or the base closed) while the push was in
			// flight: there is no tracked node to keep alive, so no renewal is
			// scheduled — the receiver's lease will lapse on its own.
			b.log("push", n.id, ext.Name, "node gone mid-push; lease left to expire")
		}
	}
	for i := range revokes {
		switch {
		case i >= len(resp.Revokes):
			revokeErrs[i] = fmt.Errorf("core: apply batch to %s: truncated response", n.addr)
		case resp.Revokes[i].Err != "":
			revokeErrs[i] = transport.NewRemoteError(MethodApplyBatch, resp.Revokes[i].Err)
		}
	}
	return installErrs, revokeErrs
}
