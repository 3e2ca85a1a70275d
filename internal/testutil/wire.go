package testutil

import "repro/internal/wire"

// WireReq and WireResp are the wire-coded request and response bodies that
// fabric tests across packages send: every RPC body is a wire frame, so a
// test message needs a codec like any other.
type WireReq struct {
	Msg string
	N   int64
}

// MarshalWire encodes r with the wire codec.
func (r WireReq) MarshalWire(e *wire.Encoder) {
	e.String(r.Msg)
	e.Varint(r.N)
}

// UnmarshalWire decodes r from the wire codec.
func (r *WireReq) UnmarshalWire(d *wire.Decoder) error {
	r.Msg = d.String()
	r.N = d.Varint()
	return d.Err()
}

// WireResp is the response half of WireReq.
type WireResp struct {
	Msg string
}

// MarshalWire encodes r with the wire codec.
func (r WireResp) MarshalWire(e *wire.Encoder) { e.String(r.Msg) }

// UnmarshalWire decodes r from the wire codec.
func (r *WireResp) UnmarshalWire(d *wire.Decoder) error {
	r.Msg = d.String()
	return d.Err()
}
