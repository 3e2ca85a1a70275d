package trace

import "repro/internal/wire"

// Wire codec for SpanContext: it rides in every TCP request envelope, so
// trace propagation costs two length-prefixed strings.
//
// Flags is deliberately NOT part of this layout, which the span_context
// golden vector freezes. The sampling flags ride in their own byte after the
// body of the TCP envelope.

// MarshalWire encodes sc with the wire codec.
func (sc SpanContext) MarshalWire(e *wire.Encoder) {
	e.String(sc.TraceID)
	e.String(sc.SpanID)
}

// UnmarshalWire decodes sc from the wire codec.
func (sc *SpanContext) UnmarshalWire(d *wire.Decoder) error {
	sc.TraceID = d.String()
	sc.SpanID = d.String()
	return d.Err()
}
