package registry

import "repro/internal/wire"

// Wire codecs for the lookup service surface: register/renew/find ride the
// same fabrics as the midas traffic, and at fleet scale a reconcile or
// discovery storm hits the registry with one RPC per node.

// MarshalWire encodes s with the wire codec.
func (s ServiceItem) MarshalWire(e *wire.Encoder) {
	e.String(s.ID)
	e.String(s.Name)
	e.String(s.Addr)
	e.StringMap(s.Attrs)
}

// UnmarshalWire decodes s from the wire codec.
func (s *ServiceItem) UnmarshalWire(d *wire.Decoder) error {
	s.ID = d.String()
	s.Name = d.String()
	s.Addr = d.String()
	s.Attrs = d.StringMap()
	return d.Err()
}

// MarshalWire encodes t with the wire codec.
func (t Template) MarshalWire(e *wire.Encoder) {
	e.String(t.Name)
	e.StringMap(t.Attrs)
}

// UnmarshalWire decodes t from the wire codec.
func (t *Template) UnmarshalWire(d *wire.Decoder) error {
	t.Name = d.String()
	t.Attrs = d.StringMap()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r RegisterReq) MarshalWire(e *wire.Encoder) {
	r.Item.MarshalWire(e)
	e.Varint(r.DurMillis)
}

// UnmarshalWire decodes r from the wire codec.
func (r *RegisterReq) UnmarshalWire(d *wire.Decoder) error {
	if err := r.Item.UnmarshalWire(d); err != nil {
		return err
	}
	r.DurMillis = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r LeaseResp) MarshalWire(e *wire.Encoder) {
	e.String(r.LeaseID)
	e.Varint(r.DurMillis)
}

// UnmarshalWire decodes r from the wire codec.
func (r *LeaseResp) UnmarshalWire(d *wire.Decoder) error {
	r.LeaseID = d.String()
	r.DurMillis = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r RenewReq) MarshalWire(e *wire.Encoder) {
	e.String(r.LeaseID)
	e.Varint(r.DurMillis)
}

// UnmarshalWire decodes r from the wire codec.
func (r *RenewReq) UnmarshalWire(d *wire.Decoder) error {
	r.LeaseID = d.String()
	r.DurMillis = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r DeregisterReq) MarshalWire(e *wire.Encoder) { e.String(r.ServiceID) }

// UnmarshalWire decodes r from the wire codec.
func (r *DeregisterReq) UnmarshalWire(d *wire.Decoder) error {
	r.ServiceID = d.String()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r FindReq) MarshalWire(e *wire.Encoder) { r.Tmpl.MarshalWire(e) }

// UnmarshalWire decodes r from the wire codec.
func (r *FindReq) UnmarshalWire(d *wire.Decoder) error {
	return r.Tmpl.UnmarshalWire(d)
}

// MarshalWire encodes r with the wire codec.
func (r FindResp) MarshalWire(e *wire.Encoder) {
	e.Len(len(r.Items))
	for _, it := range r.Items {
		it.MarshalWire(e)
	}
}

// UnmarshalWire decodes r from the wire codec.
func (r *FindResp) UnmarshalWire(d *wire.Decoder) error {
	if n := d.Len(); n > 0 {
		r.Items = make([]ServiceItem, n)
		for i := range r.Items {
			if err := r.Items[i].UnmarshalWire(d); err != nil {
				return err
			}
		}
	} else {
		r.Items = nil
	}
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r WatchReq) MarshalWire(e *wire.Encoder) {
	r.Tmpl.MarshalWire(e)
	e.Varint(r.DurMillis)
	e.String(r.Addr)
	e.String(r.Method)
}

// UnmarshalWire decodes r from the wire codec.
func (r *WatchReq) UnmarshalWire(d *wire.Decoder) error {
	if err := r.Tmpl.UnmarshalWire(d); err != nil {
		return err
	}
	r.DurMillis = d.Varint()
	r.Addr = d.String()
	r.Method = d.String()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r WatchResp) MarshalWire(e *wire.Encoder) {
	e.String(r.WatchID)
	e.Varint(r.DurMillis)
}

// UnmarshalWire decodes r from the wire codec.
func (r *WatchResp) UnmarshalWire(d *wire.Decoder) error {
	r.WatchID = d.String()
	r.DurMillis = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r RenewWatchReq) MarshalWire(e *wire.Encoder) {
	e.String(r.WatchID)
	e.Varint(r.DurMillis)
}

// UnmarshalWire decodes r from the wire codec.
func (r *RenewWatchReq) UnmarshalWire(d *wire.Decoder) error {
	r.WatchID = d.String()
	r.DurMillis = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r Empty) MarshalWire(e *wire.Encoder) {}

// UnmarshalWire decodes r from the wire codec.
func (r *Empty) UnmarshalWire(d *wire.Decoder) error { return d.Err() }

// MarshalWire encodes ev, the body of a watcher notification, with the wire
// codec.
func (ev Event) MarshalWire(e *wire.Encoder) {
	e.Byte(byte(ev.Kind))
	ev.Item.MarshalWire(e)
	ev.Trace.MarshalWire(e)
}

// UnmarshalWire decodes ev from the wire codec.
func (ev *Event) UnmarshalWire(d *wire.Decoder) error {
	ev.Kind = EventKind(d.Byte())
	if err := ev.Item.UnmarshalWire(d); err != nil {
		return err
	}
	return ev.Trace.UnmarshalWire(d)
}
