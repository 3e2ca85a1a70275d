// Fuzz battery for the wire codec, run against the real hot message types
// (this is an external test package, so it can import core and registry
// without a cycle — they import wire).
//
// FuzzWireRoundTrip: any message value round-trips bit-identically — encode,
// decode, re-encode must give the same bytes (the property replays and
// golden vectors rest on). FuzzWireDecode: arbitrary bytes never panic the
// decoder; every input either errors or yields a message whose own encoding
// decodes again.
package wire_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lvm"
	"repro/internal/registry"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/svc"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// buildMessages derives one instance of each hot message type from the fuzz
// inputs, exercising every primitive: varints of both signs, strings, byte
// slices, string slices, maps, bools and nesting.
func buildMessages(s1, s2, s3 string, i1, i2 int64, b1 []byte, ok bool) []wire.Marshaler {
	ext := core.Extension{
		ID:       s1,
		Name:     s2,
		Version:  int(int32(i1)),
		Priority: int(int32(i2)),
		Advices: []core.AdviceSpec{{
			Name:    s2,
			Kind:    "call-before",
			Pattern: s3,
			Builtin: s1,
			Config:  map[string]string{s1: s2, s3: s1},
			Code:    s3,
		}},
		Requires: []string{s1, s2},
		Caps:     []string{s3},
		Meta:     map[string]string{s2: s3},
	}
	signed := core.SignedExtension{
		Ext: ext,
		Sig: sign.Signature{SignerName: s1, PublicKey: b1, Sig: b1},
	}
	return []wire.Marshaler{
		core.RenewExtReq{LeaseID: s1, DurMillis: i1},
		core.RenewExtResp{DurMillis: i2},
		core.RenewBatchReq{Items: []core.RenewExtReq{{LeaseID: s1, DurMillis: i1}, {LeaseID: s2, DurMillis: i2}}, WantObs: ok},
		core.RenewBatchResp{Items: []core.RenewItemResp{{DurMillis: i1, Err: s3}}},
		core.InstallReq{Signed: signed, BaseAddr: s2, DurMillis: i1},
		core.InstallResp{LeaseID: s3},
		core.ApplyBatchReq{Installs: []core.InstallReq{{Signed: signed, BaseAddr: s1, DurMillis: i2}}, Revokes: []string{s1, s2, s3}},
		core.ApplyBatchResp{
			Installs: []core.InstallItemResp{{LeaseID: s1, Err: s2}},
			Revokes:  []core.RevokeItemResp{{Err: s3}},
		},
		// A one-revoke apply and its outcome: what RemoveExtension and
		// midasctl revoke send a node, and what it answers.
		core.ApplyBatchReq{Revokes: []string{s2}},
		core.ApplyBatchResp{Revokes: []core.RevokeItemResp{{Err: s1}}},
		core.InventoryResp{Node: s1, Items: []core.InventoryItem{{Name: s2, Version: int(int32(i2)), BaseAddr: s3, LeaseID: s1, DeadlineMillis: i1}}},
		core.EmptyResp{},
		registry.RegisterReq{Item: registry.ServiceItem{ID: s1, Name: s2, Addr: s3, Attrs: map[string]string{s1: s2}}, DurMillis: i1},
		registry.LeaseResp{LeaseID: s1, DurMillis: i2},
		registry.FindReq{Tmpl: registry.Template{Name: s1, Attrs: map[string]string{s2: s3, s1: s2}}},
		registry.FindResp{Items: []registry.ServiceItem{{ID: s1, Name: s2, Addr: s3}}},
		registry.WatchReq{Tmpl: registry.Template{Name: s3}, DurMillis: i1, Addr: s1, Method: s2},
		trace.SpanContext{TraceID: s1, SpanID: s2},
		svc.InvokeReq{Service: s1, Method: s2, Caller: s3, Args: []lvm.Value{
			lvm.Nil(), lvm.Int(i1), lvm.Bool(ok), lvm.Str(s3), lvm.Bytes(b1), {K: lvm.KBool, I: i2},
		}},
		svc.InvokeResp{Result: lvm.Int(i2)},
		svc.InvokeResp{Result: lvm.Bytes(b1)},
		core.PostReq{Record: store.Record{Seq: i1, Robot: s1, Device: s2, Action: s3, Value: i2, AtMillis: i1, DurMilli: i2}},
		core.RenewBatchResp{Items: []core.RenewItemResp{{DurMillis: i2}}, Obs: &core.ObsReport{
			Methods: []core.ObsMethodDelta{{Method: s1, Count: uint64(i1), Errors: uint64(i2), SumNs: i1}}, SpansDropped: uint64(i2)}},
		registry.Event{Kind: registry.EventKind(i1), Item: registry.ServiceItem{ID: s1, Name: s2, Addr: s3, Attrs: map[string]string{s3: s1}},
			Trace: trace.SpanContext{TraceID: s2, SpanID: s3}},
		transport.OpsReq{Path: s1},
		transport.OpsResp{Status: i2, Body: b1},
	}
}

func FuzzWireRoundTrip(f *testing.F) {
	f.Add("lease-1", "policy", "cell/*", int64(60_000), int64(-7), []byte{1, 2, 3}, true)
	f.Add("", "", "", int64(0), int64(0), []byte(nil), false)
	f.Add("☃ unicode", "\x00nul", "long"+string(make([]byte, 300)), int64(1)<<62, int64(-1)<<62, bytes.Repeat([]byte{0xff}, 64), true)
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, i1, i2 int64, b1 []byte, ok bool) {
		for _, msg := range buildMessages(s1, s2, s3, i1, i2, b1, ok) {
			data := wire.Marshal(msg)
			if !wire.IsFrame(data) {
				t.Fatalf("%T: marshal produced a non-frame", msg)
			}
			// Decode into a fresh value of the same type.
			out := reflect.New(reflect.TypeOf(msg)).Interface().(wire.Unmarshaler)
			if err := wire.Unmarshal(data, out); err != nil {
				t.Fatalf("%T: unmarshal of own encoding: %v", msg, err)
			}
			again := wire.Marshal(reflect.ValueOf(out).Elem().Interface().(wire.Marshaler))
			if !bytes.Equal(data, again) {
				t.Fatalf("%T: round trip not bit-identical:\n 1st: % x\n 2nd: % x", msg, data, again)
			}
		}
	})
}

func FuzzWireDecode(f *testing.F) {
	// Seed with valid encodings, truncations and corruptions of each type.
	for _, msg := range buildMessages("a", "bb", "ccc", 1, -2, []byte{9}, true) {
		data := wire.Marshal(msg)
		f.Add(data)
		f.Add(data[:len(data)-1])
		if len(data) > 4 {
			mid := append([]byte{}, data...)
			mid[4] ^= 0xff
			f.Add(mid)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xC6, 0x01})
	f.Add([]byte{0x00, 0xC6, 0x02, 0x01})
	f.Add(bytes.Repeat([]byte{0xff}, 32))
	targets := func() []wire.Unmarshaler {
		return []wire.Unmarshaler{
			&core.RenewBatchReq{},
			&core.ApplyBatchReq{},
			&core.InstallReq{},
			&core.InventoryResp{},
			&core.ApplyBatchResp{},
			&registry.RegisterReq{},
			&registry.FindResp{},
			&registry.WatchReq{},
			&trace.SpanContext{},
			&svc.InvokeReq{},
			&svc.InvokeResp{},
			&core.PostReq{},
			&core.RenewBatchResp{},
			&registry.Event{},
			&transport.OpsReq{},
			&transport.OpsResp{},
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		views := targets()
		for i, u := range targets() {
			// Must never panic and never allocate beyond the input's size
			// (hostile length prefixes are bounds-checked inside). Decoding
			// with strings as views must agree with decoding copies.
			err := wire.Unmarshal(data, u)
			if verr := wire.UnmarshalView(data, views[i]); (err == nil) != (verr == nil) {
				t.Fatalf("%T: Unmarshal err %v, UnmarshalView err %v", u, err, verr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(u, views[i]) {
				t.Fatalf("%T: UnmarshalView decoded %+v, Unmarshal %+v", u, views[i], u)
			}
			// Decoded cleanly: the value must be a valid message, i.e. its
			// own encoding decodes again.
			m := reflect.ValueOf(u).Elem().Interface().(wire.Marshaler)
			out := reflect.New(reflect.TypeOf(u).Elem()).Interface().(wire.Unmarshaler)
			if err := wire.Unmarshal(wire.Marshal(m), out); err != nil {
				t.Fatalf("%T: decoded value does not re-encode cleanly: %v", u, err)
			}
		}
	})
}
