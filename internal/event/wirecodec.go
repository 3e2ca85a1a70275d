package event

import "repro/internal/wire"

// Wire codecs for remote-event delivery: the notification envelope and the
// listener's empty ack. The payload inside Body is a wire frame of its own,
// encoded by Publish from the publisher's message type.

// MarshalWire encodes n with the wire codec.
func (n Notification) MarshalWire(e *wire.Encoder) {
	e.String(n.Source)
	e.Varint(n.Seq)
	e.String(n.Kind)
	e.Bytes(n.Body)
	n.Trace.MarshalWire(e)
}

// UnmarshalWire decodes n from the wire codec.
func (n *Notification) UnmarshalWire(d *wire.Decoder) error {
	n.Source = d.String()
	n.Seq = d.Varint()
	n.Kind = d.String()
	n.Body = d.Bytes()
	return n.Trace.UnmarshalWire(d)
}

// MarshalWire encodes the empty ack.
func (Ack) MarshalWire(*wire.Encoder) {}

// UnmarshalWire decodes the empty ack.
func (*Ack) UnmarshalWire(d *wire.Decoder) error { return d.Err() }
