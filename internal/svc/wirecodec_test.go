package svc

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/lvm"
	"repro/internal/metrics"
	"repro/internal/testutil"
	"repro/internal/transport"
	"repro/internal/weave"
	"repro/internal/wire"
)

func TestInvokeCodecRoundTripsEachScalarKind(t *testing.T) {
	for _, v := range []lvm.Value{
		lvm.Nil(),
		lvm.Int(0),
		lvm.Int(-1 << 62),
		lvm.Int(1<<63 - 1),
		lvm.Bool(true),
		lvm.Bool(false),
		lvm.Str(""),
		lvm.Str("operator ☃"),
		lvm.Bytes([]byte{0x00, 0xff, 0x10}),
	} {
		req := InvokeReq{Service: "Robot", Method: "moveArm", Caller: "operator", Args: []lvm.Value{v, lvm.Int(7)}}
		var gotReq InvokeReq
		if err := wire.Unmarshal(wire.Marshal(req), &gotReq); err != nil {
			t.Fatalf("%v: request: %v", v.K, err)
		}
		if !reflect.DeepEqual(gotReq, req) {
			t.Fatalf("%v: request round trip:\n got %#v\nwant %#v", v.K, gotReq, req)
		}
		var gotResp InvokeResp
		if err := wire.Unmarshal(wire.Marshal(InvokeResp{Result: v}), &gotResp); err != nil {
			t.Fatalf("%v: response: %v", v.K, err)
		}
		if !reflect.DeepEqual(gotResp.Result, v) {
			t.Fatalf("%v: response round trip: got %#v want %#v", v.K, gotResp.Result, v)
		}
	}
	// Empty bytes decode as nil bytes, like every wire byte field; the value
	// still compares equal.
	var got InvokeResp
	if err := wire.Unmarshal(wire.Marshal(InvokeResp{Result: lvm.Bytes([]byte{})}), &got); err != nil || !got.Result.Equal(lvm.Bytes(nil)) {
		t.Fatalf("empty bytes: %#v, %v", got.Result, err)
	}
}

// frameHeader returns a fresh wire frame header with no body.
func frameHeader() []byte { return []byte{0x00, wire.Magic, wire.Version} }

func TestInvokeDecoderRejectsUnknownKinds(t *testing.T) {
	for _, kind := range []byte{byte(lvm.KObj), 6, 0xff} {
		data := append(frameHeader(), kind)
		var resp InvokeResp
		if err := wire.Unmarshal(data, &resp); !errors.Is(err, ErrNotScalar) {
			t.Fatalf("kind %d: err = %v, want ErrNotScalar", kind, err)
		}
		req := append(frameHeader(), 0, 0, 0, 1, kind)
		var r InvokeReq
		if err := wire.Unmarshal(req, &r); !errors.Is(err, ErrNotScalar) {
			t.Fatalf("kind %d in args: err = %v, want ErrNotScalar", kind, err)
		}
	}
	// A truncated value reports truncation, not a bad kind.
	var resp InvokeResp
	if err := wire.Unmarshal(frameHeader(), &resp); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("empty value: err = %v, want wire.ErrTruncated", err)
	}
}

// objArg is an object reference, which has no wire encoding.
func objArg() lvm.Value {
	return lvm.Obj(&lvm.Object{Class: &lvm.Class{Name: "Arm"}})
}

func TestCallRefusesObjectArgInProc(t *testing.T) {
	mux := transport.NewMux()
	newEchoRegistry(weave.New()).ServeOn(mux)
	fabric := transport.NewInProc()
	reg := metrics.New()
	fabric.Instrument(reg)
	stop, err := fabric.Serve("robot1", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	_, err = Call(fabric.Node("c"), "robot1", "Robot", "moveArm", "alice", lvm.Int(1), objArg())
	if !errors.Is(err, ErrNotScalar) {
		t.Fatalf("err = %v, want ErrNotScalar", err)
	}
	if got := testutil.Counter(reg, "transport.calls"); got != 0 {
		t.Fatalf("transport.calls = %d, want 0 (refused before sending)", got)
	}
}

func TestCallRefusesObjectArgTCP(t *testing.T) {
	mux := transport.NewMux()
	newEchoRegistry(weave.New()).ServeOn(mux)
	srv, err := transport.ServeTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sreg := metrics.New()
	srv.Instrument(sreg)
	caller := transport.NewTCPCaller()
	defer caller.Close()
	_, err = Call(caller, srv.Addr(), "Robot", "moveArm", "alice", objArg())
	if !errors.Is(err, ErrNotScalar) {
		t.Fatalf("err = %v, want ErrNotScalar", err)
	}
	if got := testutil.Counter(sreg, "transport.serve_wire_conns"); got != 0 {
		t.Fatalf("server accepted %d connections, want 0 (refused before sending)", got)
	}
	// Scalar calls on the same caller still work, over the wire codec.
	if v, err := Call(caller, srv.Addr(), "Robot", "moveArm", "alice", lvm.Int(4)); err != nil || v.I != 8 {
		t.Fatalf("scalar call = %v, %v", v, err)
	}
}

func TestServeOnRefusesObjectResult(t *testing.T) {
	r := NewRegistry(weave.New())
	r.Register("Robot", "arm", nil, "obj", func([]lvm.Value) (lvm.Value, error) { return objArg(), nil })
	mux := transport.NewMux()
	r.ServeOn(mux)
	fabric := transport.NewInProc()
	stop, err := fabric.Serve("robot1", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	_, err = Call(fabric.Node("c"), "robot1", "Robot", "arm", "alice")
	var remote *transport.RemoteError
	if !errors.Is(err, ErrNotScalar) || !errors.As(err, &remote) {
		t.Fatalf("err = %v, want a remote ErrNotScalar", err)
	}
}

// BenchmarkSvcInvokeCodec prices one adapted call's four codec passes on the
// wire codec: request encode and decode, response encode and decode.
func BenchmarkSvcInvokeCodec(b *testing.B) {
	req := InvokeReq{Service: "Robot", Method: "moveArm", Caller: "operator", Args: []lvm.Value{lvm.Int(123456)}}
	resp := InvokeResp{Result: lvm.Int(123456)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body, _, err := transport.EncodeBody(req, true)
		if err != nil {
			b.Fatal(err)
		}
		var r InvokeReq
		if err := transport.Decode(body, &r); err != nil {
			b.Fatal(err)
		}
		body, _, err = transport.EncodeBody(resp, true)
		if err != nil {
			b.Fatal(err)
		}
		var out InvokeResp
		if err := transport.Decode(body, &out); err != nil {
			b.Fatal(err)
		}
	}
}
