package svc

import (
	"errors"
	"fmt"

	"repro/internal/lvm"
	"repro/internal/wire"
)

// Wire codec for the adapted remote call. A scalar lvm.Value encodes as its
// kind byte followed by the kind's payload: nothing for nil, a zigzag varint
// for int and bool, a length-prefixed string for str and length-prefixed
// bytes for bytes. Objects have no encoding — they reference a class graph
// that lives in one VM — so Call and ServeOn refuse them before encoding and
// the decoder rejects their kind byte like any other unknown kind.

// ErrNotScalar reports an argument or result that is not a scalar LVM value
// (nil, int, bool, str or bytes) and so cannot cross the network.
var ErrNotScalar = errors.New("svc: not a scalar LVM value")

// checkScalar returns ErrNotScalar, naming what and the value's kind, when v
// has no wire encoding.
func checkScalar(v lvm.Value, what string) error {
	if v.K > lvm.KBytes {
		return fmt.Errorf("%w: %s is %s", ErrNotScalar, what, v.K)
	}
	return nil
}

func marshalValue(e *wire.Encoder, v lvm.Value) {
	e.Byte(byte(v.K))
	switch v.K {
	case lvm.KInt, lvm.KBool:
		e.Varint(v.I)
	case lvm.KStr:
		e.String(v.S)
	case lvm.KBytes:
		e.Bytes(v.B)
	}
}

func unmarshalValue(d *wire.Decoder) (lvm.Value, error) {
	k := lvm.Kind(d.Byte())
	v := lvm.Value{K: k}
	switch k {
	case lvm.KNil:
	case lvm.KInt, lvm.KBool:
		v.I = d.Varint()
	case lvm.KStr:
		v.S = d.String()
	case lvm.KBytes:
		v.B = d.Bytes()
	default:
		if d.Err() == nil {
			return lvm.Value{}, fmt.Errorf("%w: value kind %d on the wire", ErrNotScalar, k)
		}
	}
	return v, d.Err()
}

// MarshalWire encodes r with the wire codec. Non-scalar Args must be refused
// before this point (Call does); they encode as their bare kind byte, which
// every decoder rejects.
func (r InvokeReq) MarshalWire(e *wire.Encoder) {
	e.String(r.Service)
	e.String(r.Method)
	e.String(r.Caller)
	e.Len(len(r.Args))
	for _, a := range r.Args {
		marshalValue(e, a)
	}
}

// UnmarshalWire decodes r from the wire codec.
func (r *InvokeReq) UnmarshalWire(d *wire.Decoder) error {
	r.Service = d.String()
	r.Method = d.String()
	r.Caller = d.String()
	r.Args = nil
	if n := d.Len(); n > 0 {
		r.Args = make([]lvm.Value, n)
		for i := range r.Args {
			v, err := unmarshalValue(d)
			if err != nil {
				return err
			}
			r.Args[i] = v
		}
	}
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r InvokeResp) MarshalWire(e *wire.Encoder) { marshalValue(e, r.Result) }

// UnmarshalWire decodes r from the wire codec.
func (r *InvokeResp) UnmarshalWire(d *wire.Decoder) error {
	v, err := unmarshalValue(d)
	r.Result = v
	return err
}
