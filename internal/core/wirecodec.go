package core

import "repro/internal/wire"

// Wire codecs for every MIDAS RPC body: renew/renewBatch (the renewal
// window's per-lease cost), applyBatch install/revoke items (every push and
// revoke), the inventory exchange (anti-entropy rounds), and the
// base's record sink. Each type writes its fields in
// declaration order; slices and maps go through the codec's count-prefixed,
// key-sorted forms so equal values always produce equal bytes (golden vectors
// and same-seed replays depend on it). Operator reads have no message types
// of their own: they are JSON documents fetched over the ops RPC.

// MarshalWire encodes a with the wire codec.
func (a AdviceSpec) MarshalWire(e *wire.Encoder) {
	e.String(a.Name)
	e.String(a.Kind)
	e.String(a.Pattern)
	e.String(a.Builtin)
	e.StringMap(a.Config)
	e.String(a.Code)
}

// UnmarshalWire decodes a from the wire codec.
func (a *AdviceSpec) UnmarshalWire(d *wire.Decoder) error {
	a.Name = d.String()
	a.Kind = d.String()
	a.Pattern = d.String()
	a.Builtin = d.String()
	a.Config = d.StringMap()
	a.Code = d.String()
	return d.Err()
}

// MarshalWire encodes x with the wire codec.
func (x Extension) MarshalWire(e *wire.Encoder) {
	e.String(x.ID)
	e.String(x.Name)
	e.Varint(int64(x.Version))
	e.Varint(int64(x.Priority))
	e.Len(len(x.Advices))
	for _, a := range x.Advices {
		a.MarshalWire(e)
	}
	e.StringSlice(x.Requires)
	e.StringSlice(x.Caps)
	e.StringSlice(x.Flows)
	e.StringMap(x.Meta)
}

// UnmarshalWire decodes x from the wire codec.
func (x *Extension) UnmarshalWire(d *wire.Decoder) error {
	x.ID = d.String()
	x.Name = d.String()
	x.Version = int(d.Varint())
	x.Priority = int(d.Varint())
	if n := d.Len(); n > 0 {
		x.Advices = make([]AdviceSpec, n)
		for i := range x.Advices {
			if err := x.Advices[i].UnmarshalWire(d); err != nil {
				return err
			}
		}
	} else {
		x.Advices = nil
	}
	x.Requires = d.StringSlice()
	x.Caps = d.StringSlice()
	x.Flows = d.StringSlice()
	x.Meta = d.StringMap()
	return d.Err()
}

// MarshalWire encodes s with the wire codec.
func (s SignedExtension) MarshalWire(e *wire.Encoder) {
	s.Ext.MarshalWire(e)
	s.Sig.MarshalWire(e)
}

// UnmarshalWire decodes s from the wire codec.
func (s *SignedExtension) UnmarshalWire(d *wire.Decoder) error {
	if err := s.Ext.UnmarshalWire(d); err != nil {
		return err
	}
	return s.Sig.UnmarshalWire(d)
}

// MarshalWire encodes r with the wire codec.
func (r InstallReq) MarshalWire(e *wire.Encoder) {
	r.Signed.MarshalWire(e)
	e.String(r.BaseAddr)
	e.Varint(r.DurMillis)
}

// UnmarshalWire decodes r from the wire codec.
func (r *InstallReq) UnmarshalWire(d *wire.Decoder) error {
	if err := r.Signed.UnmarshalWire(d); err != nil {
		return err
	}
	r.BaseAddr = d.String()
	r.DurMillis = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r InstallResp) MarshalWire(e *wire.Encoder) { e.String(r.LeaseID) }

// UnmarshalWire decodes r from the wire codec.
func (r *InstallResp) UnmarshalWire(d *wire.Decoder) error {
	r.LeaseID = d.String()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r RenewExtReq) MarshalWire(e *wire.Encoder) {
	e.String(r.LeaseID)
	e.Varint(r.DurMillis)
}

// UnmarshalWire decodes r from the wire codec. The lease ID is a view into a
// handed-over body (wire.UnmarshalView), so a renewal batch decodes no string
// per lease.
func (r *RenewExtReq) UnmarshalWire(d *wire.Decoder) error {
	r.LeaseID = d.StringView()
	r.DurMillis = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r RenewExtResp) MarshalWire(e *wire.Encoder) { e.Varint(r.DurMillis) }

// UnmarshalWire decodes r from the wire codec.
func (r *RenewExtResp) UnmarshalWire(d *wire.Decoder) error {
	r.DurMillis = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r EmptyResp) MarshalWire(e *wire.Encoder) {}

// UnmarshalWire decodes r from the wire codec.
func (r *EmptyResp) UnmarshalWire(d *wire.Decoder) error { return d.Err() }

// MarshalWire encodes r with the wire codec.
func (r RenewBatchReq) MarshalWire(e *wire.Encoder) {
	e.Len(len(r.Items))
	for _, it := range r.Items {
		it.MarshalWire(e)
	}
	e.Bool(r.WantObs)
}

// UnmarshalWire decodes r from the wire codec.
func (r *RenewBatchReq) UnmarshalWire(d *wire.Decoder) error {
	if n := d.Len(); n > 0 {
		r.Items = make([]RenewExtReq, n)
		for i := range r.Items {
			if err := r.Items[i].UnmarshalWire(d); err != nil {
				return err
			}
		}
	} else {
		r.Items = nil
	}
	r.WantObs = d.Bool()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r RenewItemResp) MarshalWire(e *wire.Encoder) {
	e.Varint(r.DurMillis)
	e.String(r.Err)
}

// UnmarshalWire decodes r from the wire codec.
func (r *RenewItemResp) UnmarshalWire(d *wire.Decoder) error {
	r.DurMillis = d.Varint()
	r.Err = d.String()
	return d.Err()
}

// MarshalWire encodes r with the wire codec. The piggybacked ObsReport
// follows a presence bool.
func (r RenewBatchResp) MarshalWire(e *wire.Encoder) {
	e.Len(len(r.Items))
	for _, it := range r.Items {
		it.MarshalWire(e)
	}
	e.Bool(r.Obs != nil)
	if r.Obs != nil {
		r.Obs.MarshalWire(e)
	}
}

// UnmarshalWire decodes r from the wire codec. It decodes into the Items
// capacity r already holds, so a response the base recycles across renewal
// calls allocates its items once.
func (r *RenewBatchResp) UnmarshalWire(d *wire.Decoder) error {
	if n := d.Len(); n > 0 {
		if cap(r.Items) >= n {
			r.Items = r.Items[:n]
		} else {
			r.Items = make([]RenewItemResp, n)
		}
		for i := range r.Items {
			if err := r.Items[i].UnmarshalWire(d); err != nil {
				return err
			}
		}
	} else {
		r.Items = nil
	}
	r.Obs = nil
	if d.Bool() {
		r.Obs = new(ObsReport)
		if err := r.Obs.UnmarshalWire(d); err != nil {
			return err
		}
	}
	return d.Err()
}

// MarshalWire encodes m with the wire codec.
func (m ObsMethodDelta) MarshalWire(e *wire.Encoder) {
	e.String(m.Method)
	e.Uvarint(m.Count)
	e.Uvarint(m.Errors)
	e.Varint(m.SumNs)
}

// UnmarshalWire decodes m from the wire codec.
func (m *ObsMethodDelta) UnmarshalWire(d *wire.Decoder) error {
	m.Method = d.String()
	m.Count = d.Uvarint()
	m.Errors = d.Uvarint()
	m.SumNs = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r ObsReport) MarshalWire(e *wire.Encoder) {
	e.Len(len(r.Methods))
	for _, m := range r.Methods {
		m.MarshalWire(e)
	}
	e.Uvarint(r.SpansDropped)
	e.Uvarint(r.SampledOut)
	e.Uvarint(r.TailKept)
}

// UnmarshalWire decodes r from the wire codec.
func (r *ObsReport) UnmarshalWire(d *wire.Decoder) error {
	if n := d.Len(); n > 0 {
		r.Methods = make([]ObsMethodDelta, n)
		for i := range r.Methods {
			if err := r.Methods[i].UnmarshalWire(d); err != nil {
				return err
			}
		}
	} else {
		r.Methods = nil
	}
	r.SpansDropped = d.Uvarint()
	r.SampledOut = d.Uvarint()
	r.TailKept = d.Uvarint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r ApplyBatchReq) MarshalWire(e *wire.Encoder) {
	e.Len(len(r.Installs))
	for _, it := range r.Installs {
		it.MarshalWire(e)
	}
	e.StringSlice(r.Revokes)
}

// UnmarshalWire decodes r from the wire codec.
func (r *ApplyBatchReq) UnmarshalWire(d *wire.Decoder) error {
	if n := d.Len(); n > 0 {
		r.Installs = make([]InstallReq, n)
		for i := range r.Installs {
			if err := r.Installs[i].UnmarshalWire(d); err != nil {
				return err
			}
		}
	} else {
		r.Installs = nil
	}
	r.Revokes = d.StringSlice()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r InstallItemResp) MarshalWire(e *wire.Encoder) {
	e.String(r.LeaseID)
	e.String(r.Err)
}

// UnmarshalWire decodes r from the wire codec.
func (r *InstallItemResp) UnmarshalWire(d *wire.Decoder) error {
	r.LeaseID = d.String()
	r.Err = d.String()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r RevokeItemResp) MarshalWire(e *wire.Encoder) { e.String(r.Err) }

// UnmarshalWire decodes r from the wire codec.
func (r *RevokeItemResp) UnmarshalWire(d *wire.Decoder) error {
	r.Err = d.String()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r ApplyBatchResp) MarshalWire(e *wire.Encoder) {
	e.Len(len(r.Installs))
	for _, it := range r.Installs {
		it.MarshalWire(e)
	}
	e.Len(len(r.Revokes))
	for _, it := range r.Revokes {
		it.MarshalWire(e)
	}
}

// UnmarshalWire decodes r from the wire codec.
func (r *ApplyBatchResp) UnmarshalWire(d *wire.Decoder) error {
	if n := d.Len(); n > 0 {
		r.Installs = make([]InstallItemResp, n)
		for i := range r.Installs {
			if err := r.Installs[i].UnmarshalWire(d); err != nil {
				return err
			}
		}
	} else {
		r.Installs = nil
	}
	if n := d.Len(); n > 0 {
		r.Revokes = make([]RevokeItemResp, n)
		for i := range r.Revokes {
			if err := r.Revokes[i].UnmarshalWire(d); err != nil {
				return err
			}
		}
	} else {
		r.Revokes = nil
	}
	return d.Err()
}

// MarshalWire encodes i with the wire codec.
func (i InventoryItem) MarshalWire(e *wire.Encoder) {
	e.String(i.Name)
	e.Varint(int64(i.Version))
	e.String(i.BaseAddr)
	e.String(i.LeaseID)
	e.Varint(i.DeadlineMillis)
}

// UnmarshalWire decodes i from the wire codec.
func (i *InventoryItem) UnmarshalWire(d *wire.Decoder) error {
	i.Name = d.String()
	i.Version = int(d.Varint())
	i.BaseAddr = d.String()
	i.LeaseID = d.String()
	i.DeadlineMillis = d.Varint()
	return d.Err()
}

// MarshalWire encodes r with the wire codec.
func (r InventoryResp) MarshalWire(e *wire.Encoder) {
	e.String(r.Node)
	e.Len(len(r.Items))
	for _, it := range r.Items {
		it.MarshalWire(e)
	}
}

// UnmarshalWire decodes r from the wire codec.
func (r *InventoryResp) UnmarshalWire(d *wire.Decoder) error {
	r.Node = d.String()
	if n := d.Len(); n > 0 {
		r.Items = make([]InventoryItem, n)
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

// MarshalWire encodes r, one monitoring record, with the wire codec.
func (r PostReq) MarshalWire(e *wire.Encoder) {
	e.Varint(r.Record.Seq)
	e.String(r.Record.Robot)
	e.String(r.Record.Device)
	e.String(r.Record.Action)
	e.Varint(r.Record.Value)
	e.Varint(r.Record.AtMillis)
	e.Varint(r.Record.DurMilli)
}

// UnmarshalWire decodes r from the wire codec.
func (r *PostReq) UnmarshalWire(d *wire.Decoder) error {
	r.Record.Seq = d.Varint()
	r.Record.Robot = d.String()
	r.Record.Device = d.String()
	r.Record.Action = d.String()
	r.Record.Value = d.Varint()
	r.Record.AtMillis = d.Varint()
	r.Record.DurMilli = d.Varint()
	return d.Err()
}
