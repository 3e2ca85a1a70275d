package transport

import "context"

// peerKey carries the calling peer's address in a server-side context.
type peerKey struct{}

// boxPeer converts the calling peer's address to the context value
// withBoxedPeer stamps, nil for "". Every fabric stamps the addresses it
// knows — the in-proc and simnet fabrics their caller's node name, the TCP
// server the connection's remote address — so server-side middleware
// (per-peer token buckets in internal/overload) can attribute a request
// without the peer having to claim an identity in the payload. A fabric
// caller boxes its own address once and stamps it on every call, instead of
// paying the string's conversion per call.
func boxPeer(addr string) any {
	if addr == "" {
		return nil
	}
	return addr
}

// withBoxedPeer stamps an address boxed by boxPeer into ctx.
func withBoxedPeer(ctx context.Context, addr any) context.Context {
	if addr == nil {
		return ctx
	}
	return context.WithValue(ctx, peerKey{}, addr)
}

// Peer reports the address a fabric stamped, "" for unattributed requests.
func Peer(ctx context.Context) string {
	addr, _ := ctx.Value(peerKey{}).(string)
	return addr
}
