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
// all of a node's due lease renewals ride one midas.renewBatch call, and the
// installs+revokes a reconcile diff (or a multi-extension adapt) produces for
// one node ride one midas.applyBatch call. Every receiver serves the batch
// methods; a peer that answers one with ErrNoMethod fails that renewal or
// push like any other error.

// RPC method names of the batch surface.
const (
	MethodRenewBatch = "midas.renewBatch"
	MethodApplyBatch = "midas.applyBatch"
)

// Wire types for the batch surface.
type (
	// RenewBatchReq renews several leases at one node in one exchange.
	// WantObs asks the node to piggyback its observability delta on the
	// response; it rides as an optional trailing wire field (encoded only
	// when true) so requests to and from old peers keep their old bytes.
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
	// when the request asked for it — a node must never volunteer trailing
	// bytes to a base that would reject them.
	RenewBatchResp struct {
		Items []RenewItemResp
		Obs   *ObsReport
	}
	// ApplyBatchReq bundles the installs and revokes one reconcile diff (or
	// adapt round) produced for one node.
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
	// already gone succeeds, like the singleton revoke.
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
func (b *Base) renewNodeBatch(node string, items []lease.BatchItem, out []lease.BatchResult) error {
	// The per-item trace metadata of a small batch lives on the stack; a
	// larger one pays one allocation, amortised over its leases.
	var metaBuf [8]renewItemMeta
	metas := metaBuf[:0]
	if len(items) > len(metaBuf) {
		metas = make([]renewItemMeta, 0, len(items))
	}
	metas, ok := b.renewMeta(node, items, metas)
	if !ok {
		return fmt.Errorf("core: node %s is no longer tracked", node)
	}
	if len(items) == 1 {
		out[0] = b.renewOne(node, items[0].ID, metas[0])
		return nil
	}

	m, tr, wantObs := b.renewRefs()
	sp := tr.StartSpanFrom(trace.SpanContext{}, "lease.renewBatch")
	sp.Tag("node", node)
	// A tag, not an annotation: tags on a sampled-out span are free (the pool
	// keeps their backing array), while Annotatef pays fmt on every batch.
	sp.Tag("leases", strconv.Itoa(len(items)))
	rc := getRenewCall()
	defer putRenewCall(rc)
	req, resp := &rc.batchReq, &rc.batchResp
	req.WantObs = wantObs
	for _, it := range items {
		req.Items = append(req.Items, RenewExtReq{LeaseID: string(it.ID), DurMillis: b.cfg.LeaseDur.Milliseconds()})
	}
	pctx := context.Background()
	if sc := sp.Context(); sc.TraceID != "" {
		// Parent the rpc.call span under this batch span. Besides the trace
		// tree reading right, a sampled-out child rides the context's decision
		// instead of minting a root trace ID per call on the shared RNG.
		pctx = trace.NewContext(pctx, sc)
	}
	rctx := transport.WithCallDeadline(pctx, b.cfg.CallTimeout)
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
		meta := metas[i]
		lsp := tr.StartSpanFrom(meta.sc, "lease.renew")
		lsp.Tag("ext", meta.ext)
		lsp.Tag("node", meta.nodeID)
		lsp.End(ierr)
	}
	return nil
}

// renewCall holds one renewal exchange's request and response. The base
// renews every lease of the fleet once per window, so the pair is pooled:
// passing pooled pointers to the Caller spares boxing the request and the
// response per call, and the batch request's Items and the batch response's
// decoded Items keep their capacity across calls. A Caller decodes into the
// response before it returns and keeps neither, so the pair is free to reuse
// once the call is over.
type renewCall struct {
	batchReq  RenewBatchReq
	batchResp RenewBatchResp
	oneReq    RenewExtReq
	oneResp   RenewExtResp
}

var renewCalls = sync.Pool{New: func() any { return new(renewCall) }}

func getRenewCall() *renewCall { return renewCalls.Get().(*renewCall) }

// putRenewCall clears rc, keeping the Items capacity but no strings or
// reports from the call, and pools it.
func putRenewCall(rc *renewCall) {
	clear(rc.batchReq.Items)
	clear(rc.batchResp.Items)
	*rc = renewCall{
		batchReq:  RenewBatchReq{Items: rc.batchReq.Items[:0]},
		batchResp: RenewBatchResp{Items: rc.batchResp.Items[:0]},
	}
	renewCalls.Put(rc)
}

// renewMeta snapshots per-lease trace metadata under the node's shard lock,
// appending to meta one entry per item. Each item names the extension its
// lease was added under, so a lease whose grant still holds it is found
// without walking the node's grants.
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
		if g, held := n.grants[it.Name]; held && g.leaseID == it.ID {
			m = renewItemMeta{ext: it.Name, nodeID: n.id, sc: n.spanCtxs[it.Name]}
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
	lctx, lsp := tr.StartSpan(trace.NewContext(context.Background(), meta.sc), "lease.renew")
	lsp.Tag("ext", meta.ext)
	lsp.Tag("node", meta.nodeID)
	rc := getRenewCall()
	defer putRenewCall(rc)
	rc.oneReq = RenewExtReq{LeaseID: string(id), DurMillis: b.cfg.LeaseDur.Milliseconds()}
	rctx := transport.WithCallDeadline(lctx, b.cfg.CallTimeout)
	err := b.caller.Call(rctx, node, MethodRenewE, &rc.oneReq, &rc.oneResp)
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

// applyToNode delivers installs and revokes to one node, batched into a
// single midas.applyBatch exchange when there is more than one operation. It
// returns per-extension outcomes; push successes are logged (and counted)
// here, push failures and revoke outcomes are the caller's to log, mirroring
// the singleton paths.
func (b *Base) applyToNode(ctx context.Context, n *adaptedNode, installs []Extension, revokes []string) (installErrs, revokeErrs map[string]error) {
	installErrs = make(map[string]error, len(installs))
	revokeErrs = make(map[string]error, len(revokes))
	if len(installs)+len(revokes) == 0 {
		return installErrs, revokeErrs
	}
	if len(installs)+len(revokes) == 1 {
		for _, ext := range installs {
			installErrs[ext.Name] = b.pushExtension(ctx, n, ext)
		}
		for _, name := range revokes {
			revokeErrs[name] = b.revokeExtension(ctx, n, name)
		}
		return installErrs, revokeErrs
	}

	m := b.metricsRef()
	tr := b.traceRef()
	pctx, sp := tr.StartSpan(ctx, "base.pushBatch")
	sp.Tag("node", n.id)
	sp.Annotatef("%d installs, %d revokes", len(installs), len(revokes))

	req := ApplyBatchReq{Revokes: revokes}
	sent := make([]Extension, 0, len(installs))
	for _, ext := range installs {
		signed, err := b.signedFor(ext)
		if err != nil {
			installErrs[ext.Name] = err
			continue
		}
		req.Installs = append(req.Installs, InstallReq{
			Signed:    signed,
			BaseAddr:  b.cfg.Addr,
			DurMillis: b.cfg.LeaseDur.Milliseconds(),
		})
		sent = append(sent, ext)
	}

	ictx := transport.WithCallDeadline(pctx, b.cfg.CallTimeout)
	resp, err := transport.Invoke[ApplyBatchReq, ApplyBatchResp](ictx, b.caller, n.addr, MethodApplyBatch, req)
	ictx.Cancel()
	// Capture the identity before End: a sampled-out span is recycled there,
	// and Context on the recycled handle would mint an ID for whatever span
	// owns the pooled storage next.
	batchSC := sp.Context()
	sp.End(err)
	if err != nil {
		werr := fmt.Errorf("core: apply batch to %s: %w", n.addr, err)
		for _, ext := range sent {
			installErrs[ext.Name] = werr
		}
		for _, name := range revokes {
			revokeErrs[name] = werr
		}
		return installErrs, revokeErrs
	}
	m.pushBatches.Inc()

	for i, ext := range sent {
		if i >= len(resp.Installs) {
			installErrs[ext.Name] = fmt.Errorf("core: apply batch to %s: truncated response", n.addr)
			continue
		}
		if e := resp.Installs[i].Err; e != "" {
			installErrs[ext.Name] = fmt.Errorf("core: push %q to %s: %w", ext.Name, n.addr, transport.NewRemoteError(MethodApplyBatch, e))
			continue
		}
		installErrs[ext.Name] = nil
		b.log("push", n.id, ext.Name, "")
		g := grantInfo{
			version:  ext.Version,
			leaseID:  lease.ID(resp.Installs[i].LeaseID),
			dur:      b.cfg.LeaseDur,
			deadline: b.cfg.Clock.Now().Add(b.cfg.LeaseDur),
		}
		if !b.trackGrant(n, ext.Name, g, b.cfg.LeaseDur, batchSC) {
			b.log("push", n.id, ext.Name, "node gone mid-push; lease left to expire")
		}
	}
	for i, name := range revokes {
		if i >= len(resp.Revokes) {
			revokeErrs[name] = fmt.Errorf("core: apply batch to %s: truncated response", n.addr)
			continue
		}
		if e := resp.Revokes[i].Err; e != "" {
			revokeErrs[name] = transport.NewRemoteError(MethodApplyBatch, e)
			continue
		}
		revokeErrs[name] = nil
	}
	return installErrs, revokeErrs
}
