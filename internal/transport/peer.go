package transport

import "context"

// peerKey carries the calling peer's address in a server-side context.
type peerKey struct{}

// WithPeer stamps the calling peer's address into ctx. Every fabric stamps
// the addresses it knows — the in-proc and simnet fabrics their caller's node
// name, the TCP server the connection's remote address — so server-side
// middleware (per-peer token buckets in internal/overload) can attribute a
// request without the peer having to claim an identity in the payload.
func WithPeer(ctx context.Context, addr string) context.Context {
	return withBoxedPeer(ctx, boxPeer(addr))
}

// boxPeer converts addr to the context value WithPeer stamps, nil for "". A
// fabric caller boxes its own address once and stamps it on every call with
// withBoxedPeer, instead of paying the string's conversion per call.
func boxPeer(addr string) any {
	if addr == "" {
		return nil
	}
	return addr
}

// withBoxedPeer is WithPeer for an address already boxed by boxPeer.
func withBoxedPeer(ctx context.Context, addr any) context.Context {
	if addr == nil {
		return ctx
	}
	return context.WithValue(ctx, peerKey{}, addr)
}

// Peer reports the address WithPeer stamped, "" for unattributed requests.
func Peer(ctx context.Context) string {
	addr, _ := ctx.Value(peerKey{}).(string)
	return addr
}
