package overload

import (
	"context"

	"repro/internal/trace"
	"repro/internal/transport"
)

// Handler fronts a transport.Handler with the overload control plane:
// per-peer token buckets first (cheapest check, and a misbehaving peer
// shouldn't consume shared queue space), then the concurrency limiter with
// its priority queues and deadline-aware drops, and only then the wrapped
// handler. Because every fabric — in-proc, simnet, TCP — invokes
// servers through transport.Handler, one wrapper protects all three.
type Handler struct {
	inner   transport.Handler
	lim     *Limiter
	buckets *Buckets
	tracer  *trace.Tracer
}

// Wrap builds the overload front. lim, buckets, and tr may each be nil, in
// which case that layer is skipped.
func Wrap(inner transport.Handler, lim *Limiter, buckets *Buckets, tr *trace.Tracer) *Handler {
	return &Handler{inner: inner, lim: lim, buckets: buckets, tracer: tr}
}

// Handle implements transport.Handler.
func (h *Handler) Handle(ctx context.Context, method string, body []byte) ([]byte, error) {
	class := Classify(method)
	if retry, ok := h.buckets.Admit(transport.Peer(ctx), method); !ok {
		err := transport.Overloaded(retry)
		h.lim.shed(class) // bucket denials count in the per-class sheds too
		h.shedSpan(ctx, method, class, "peer_rate", err)
		return nil, err
	}
	if err := h.lim.Acquire(ctx, class); err != nil {
		h.shedSpan(ctx, method, class, "queue", err)
		return nil, err
	}
	defer h.lim.Release()
	return h.inner.Handle(ctx, method, body)
}

// shedSpan records a shed decision in the trace so a cross-node walk shows
// where (and why) the fabric pushed back. The span carries the overloaded
// tag the observability plane keys on.
func (h *Handler) shedSpan(ctx context.Context, method string, class Class, reason string, err error) {
	if h.tracer == nil {
		return
	}
	_, span := h.tracer.StartSpan(ctx, "rpc.shed")
	span.Tag("overloaded", "true")
	span.Tag("method", method)
	span.Tag("class", class.String())
	span.Tag("reason", reason)
	span.End(err)
}

// Snapshot merges the limiter's state with the bucket counters into the
// status surface served in /fleet and /healthz.
func (h *Handler) Snapshot() Snapshot {
	s := h.lim.Snapshot()
	s.PeerSheds = h.buckets.Sheds()
	s.Peers = h.buckets.Peers()
	return s
}
