package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// wireReq/wireResp carry wire codecs, so they ride the zero-reflection path;
// echoReq/echoResp (transport_test.go) have none and pin the gob-body path.
type wireReq struct {
	Msg string
	N   int64
}

func (r wireReq) MarshalWire(e *wire.Encoder) {
	e.String(r.Msg)
	e.Varint(r.N)
}

func (r *wireReq) UnmarshalWire(d *wire.Decoder) error {
	r.Msg = d.String()
	r.N = d.Varint()
	return d.Err()
}

type wireResp struct {
	Msg string
}

func (r wireResp) MarshalWire(e *wire.Encoder) { e.String(r.Msg) }

func (r *wireResp) UnmarshalWire(d *wire.Decoder) error {
	r.Msg = d.String()
	return d.Err()
}

func newWireEchoMux() *Mux {
	mux := NewMux()
	Register(mux, "wecho", func(_ context.Context, req wireReq) (wireResp, error) {
		out := ""
		for i := int64(0); i < req.N; i++ {
			out += req.Msg
		}
		return wireResp{Msg: out}, nil
	})
	return mux
}

func TestEncodeBodyPicksCodecPerType(t *testing.T) {
	data, usedWire, err := EncodeBody(wireReq{Msg: "x", N: 1}, true)
	if err != nil || !usedWire || !wire.IsFrame(data) {
		t.Fatalf("wire-capable type: usedWire=%v frame=%v err=%v", usedWire, wire.IsFrame(data), err)
	}
	data, usedWire, err = EncodeBody(echoReq{Msg: "x", N: 1}, true)
	if err != nil || usedWire || wire.IsFrame(data) {
		t.Fatalf("gob-only type: usedWire=%v frame=%v err=%v", usedWire, wire.IsFrame(data), err)
	}
	data, usedWire, err = EncodeBody(wireReq{Msg: "x", N: 1}, false)
	if err != nil || usedWire || wire.IsFrame(data) {
		t.Fatalf("wire disabled: usedWire=%v frame=%v err=%v", usedWire, wire.IsFrame(data), err)
	}
}

func TestDecodeDispatchesOnFrameHeader(t *testing.T) {
	in := wireReq{Msg: "hello", N: 42}
	for _, useWire := range []bool{true, false} {
		data, _, err := EncodeBody(in, useWire)
		if err != nil {
			t.Fatal(err)
		}
		var out wireReq
		if err := Decode(data, &out); err != nil {
			t.Fatalf("useWire=%v: %v", useWire, err)
		}
		if out != in {
			t.Fatalf("useWire=%v: got %+v want %+v", useWire, out, in)
		}
	}
	// A wire frame for a codec-less type errors with ErrDecode rather than
	// guessing.
	var eo echoReq
	if err := Decode(wire.Marshal(wireReq{}), &eo); !errors.Is(err, ErrDecode) {
		t.Fatalf("frame into codec-less type: %v", err)
	}
}

func TestInProcWireBodiesCounted(t *testing.T) {
	fabric := NewInProc()
	reg := metrics.New()
	fabric.Instrument(reg)
	stop, _ := fabric.Serve("b", newWireEchoMux())
	defer stop()
	resp, err := Invoke[wireReq, wireResp](context.Background(), fabric.Node("a"), "b", "wecho", wireReq{Msg: "ab", N: 2})
	if err != nil || resp.Msg != "abab" {
		t.Fatalf("resp=%q err=%v", resp.Msg, err)
	}
	if got := testutil.Counter(reg, "transport.wire_bodies"); got != 1 {
		t.Fatalf("wire_bodies = %d, want 1", got)
	}
	if got := testutil.Counter(reg, "transport.codec_fallbacks"); got != 0 {
		t.Fatalf("codec_fallbacks = %d, want 0", got)
	}
}

func TestInProcFallsBackToGobOnlyPeer(t *testing.T) {
	fabric := NewInProc()
	reg := metrics.New()
	fabric.Instrument(reg)
	legacyMux := newWireEchoMux()
	legacyMux.SetGobOnly(true)
	stop, _ := fabric.Serve("old", legacyMux)
	defer stop()
	caller := fabric.Node("base")
	for i := 0; i < 3; i++ {
		resp, err := Invoke[wireReq, wireResp](context.Background(), caller, "old", "wecho", wireReq{Msg: "x", N: 3})
		if err != nil || resp.Msg != "xxx" {
			t.Fatalf("call %d: resp=%q err=%v", i, resp.Msg, err)
		}
	}
	// One wire attempt, one remembered fallback, all later calls gob.
	if got := testutil.Counter(reg, "transport.codec_fallbacks"); got != 1 {
		t.Fatalf("codec_fallbacks = %d, want 1", got)
	}
	if got := testutil.Counter(reg, "transport.wire_bodies"); got != 1 {
		t.Fatalf("wire_bodies = %d, want 1", got)
	}
	if got := testutil.Counter(reg, "transport.gob_bodies"); got != 3 {
		t.Fatalf("gob_bodies = %d, want 3 (the fallback retry plus two remembered)", got)
	}
}

func TestTCPNegotiatesWireEnvelope(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newWireEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sreg := metrics.New()
	srv.Instrument(sreg)
	caller := NewTCPCaller()
	defer caller.Close()
	creg := metrics.New()
	caller.Instrument(creg)
	resp, err := Invoke[wireReq, wireResp](context.Background(), caller, srv.Addr(), "wecho", wireReq{Msg: "ab", N: 3})
	if err != nil || resp.Msg != "ababab" {
		t.Fatalf("resp=%q err=%v", resp.Msg, err)
	}
	if got := testutil.Counter(sreg, "transport.serve_wire_conns"); got != 1 {
		t.Fatalf("serve_wire_conns = %d, want 1", got)
	}
	if got := testutil.Counter(creg, "transport.wire_bodies"); got != 1 {
		t.Fatalf("wire_bodies = %d, want 1", got)
	}
}

func TestTCPFallsBackToLegacyServer(t *testing.T) {
	legacyMux := newWireEchoMux()
	legacyMux.SetGobOnly(true)
	srv, err := ServeTCPLegacy("127.0.0.1:0", legacyMux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	caller := NewTCPCaller()
	caller.DialTimeout = time.Second
	defer caller.Close()
	reg := metrics.New()
	caller.Instrument(reg)
	for i := 0; i < 2; i++ {
		resp, err := Invoke[wireReq, wireResp](context.Background(), caller, srv.Addr(), "wecho", wireReq{Msg: "y", N: 2})
		if err != nil || resp.Msg != "yy" {
			t.Fatalf("call %d: resp=%q err=%v", i, resp.Msg, err)
		}
	}
	if got := testutil.Counter(reg, "transport.codec_fallbacks"); got != 1 {
		t.Fatalf("codec_fallbacks = %d, want 1", got)
	}
	if got := testutil.Counter(reg, "transport.wire_bodies"); got != 0 {
		t.Fatalf("wire_bodies = %d, want 0 (legacy peer remembered at dial)", got)
	}
}

func TestTCPServesLegacyGobClient(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newWireEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sreg := metrics.New()
	srv.Instrument(sreg)
	caller := NewTCPCaller()
	caller.DisableWire() // a client binary predating the codec
	defer caller.Close()
	resp, err := Invoke[wireReq, wireResp](context.Background(), caller, srv.Addr(), "wecho", wireReq{Msg: "z", N: 4})
	if err != nil || resp.Msg != "zzzz" {
		t.Fatalf("resp=%q err=%v", resp.Msg, err)
	}
	if got := testutil.Counter(sreg, "transport.serve_gob_conns"); got != 1 {
		t.Fatalf("serve_gob_conns = %d, want 1", got)
	}
}

// muxDial opens a raw connection to addr and performs the wire handshake
// byte for byte: the 4-byte preface [0x00, Magic, envTag, wire.Version] and
// the 3-byte ack [Magic, envTag, wire.Version].
func muxDial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{0x00, 0xC6, 0x81, wire.Version}); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var ack [3]byte
	if _, err := io.ReadFull(br, ack[:]); err != nil {
		t.Fatal(err)
	}
	if ack != [3]byte{0xC6, 0x81, wire.Version} {
		t.Fatalf("ack = %#v, want [0xC6, 0x81, wire.Version]", ack)
	}
	return conn, br
}

// rawEnvelope reads one length-prefixed envelope and returns its payload.
func rawEnvelope(t *testing.T, br *bufio.Reader) []byte {
	t.Helper()
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestTCPWireEnvelopeLayout is the regression test pinning the multiplexed
// envelope layout: it speaks the protocol with raw socket reads and writes,
// byte for byte — handshake, then request envelopes of (uvarint length,
// request ID, method, trace, body, flags, budget) where the body is one wire
// frame copied in verbatim, and response envelopes of (uvarint length,
// request ID, error text, body). If any of this drifts, deployed peers stop
// interoperating; bump envelopeVersion instead.
func TestTCPWireEnvelopeLayout(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newWireEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, br := muxDial(t, srv.Addr())

	// Two requests, assembled by hand and written back to back: ID 7 with
	// no trace and no deadline, ID 9 sampled with a 1500 ms budget. The body
	// is the wire frame for wireReq{Msg:"ab", N:2} and must appear in each
	// envelope verbatim (encoded exactly once; the double-gob these
	// envelopes replaced put a gob stream inside a gob stream here).
	body := wire.Marshal(wireReq{Msg: "ab", N: 2})
	request := func(id uint64, flags byte, budgetMillis int64) []byte {
		e := wire.GetEncoder()
		defer wire.PutEncoder(e)
		e.Uvarint(id)
		e.String("wecho") // method
		e.String("")      // trace ID (absent)
		e.String("")      // span ID (absent)
		e.Bytes(body)
		e.Byte(flags)
		e.Varint(budgetMillis)
		var lenBuf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(lenBuf[:], uint64(len(e.Data())))
		return append(lenBuf[:n:n], e.Data()...)
	}
	first := request(7, 0, 0)
	wantFirst := []byte{
		0x13,                          // payload length 19
		0x07,                          // request ID
		0x05, 'w', 'e', 'c', 'h', 'o', // method
		0x00, 0x00, // trace ID, span ID
		0x07, 0x00, 0xC6, wire.Version, // body: length, frame header...
		0x02, 'a', 'b', 0x04, // ...Msg "ab", N 2 (zigzag)
		0x00, // flags
		0x00, // budget (none)
	}
	if !bytes.Equal(first, wantFirst) {
		t.Fatalf("request envelope drifted:\n got: % x\nwant: % x", first, wantFirst)
	}
	second := request(9, 0x03, 1500) // FlagSampleKnown | FlagSampled
	if !bytes.Contains(second, body) {
		t.Fatal("request body not embedded verbatim in the envelope")
	}
	if _, err := conn.Write(append(first, second...)); err != nil {
		t.Fatal(err)
	}

	// Response envelopes: uvarint length, then the request's ID, the error
	// text and the body, again one verbatim wire frame. The two requests are
	// handled concurrently, so their responses may come back in either
	// order.
	respBody := wire.Marshal(wireResp{Msg: "abab"})
	want := map[byte][]byte{}
	for _, id := range []byte{0x07, 0x09} {
		want[id] = append([]byte{id, 0x00, byte(len(respBody))}, respBody...)
	}
	for len(want) > 0 {
		got := rawEnvelope(t, br)
		if len(got) == 0 || !bytes.Equal(got, want[got[0]]) {
			t.Fatalf("response envelope drifted:\n got: % x\nwant: % x or % x", got, want[0x07], want[0x09])
		}
		delete(want, got[0])
	}
}

// TestTCPRefusesPreMuxPreface pins the handshake's version gate: a client
// built before the multiplexed envelope opens with the 3-byte preface
// [0x00, Magic, wire.Version], and the server must hang up without an ack,
// so that client falls back to gob at the handshake instead of exchanging
// envelopes it would misparse.
func TestTCPRefusesPreMuxPreface(t *testing.T) {
	srv, err := ServeTCP("127.0.0.1:0", newWireEchoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sreg := metrics.New()
	srv.Instrument(sreg)
	conn, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{0x00, 0xC6, wire.Version}); err != nil {
		t.Fatal(err)
	}
	var ack [1]byte
	if n, err := conn.Read(ack[:]); err != io.EOF {
		t.Fatalf("pre-change preface answered: read %d bytes (% x), err %v; want EOF", n, ack[:n], err)
	}
	if got := testutil.Counter(sreg, "transport.serve_wire_conns"); got != 0 {
		t.Fatalf("serve_wire_conns = %d, want 0", got)
	}
}

// TestWireResponseMirrorsRequestCodec pins the compatibility rule that old
// gob callers never receive wire bytes: the same handler answers a gob
// request in gob and a wire request in wire.
func TestWireResponseMirrorsRequestCodec(t *testing.T) {
	mux := newWireEchoMux()
	ctx := context.Background()
	gobBody, _, err := EncodeBody(wireReq{Msg: "a", N: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := mux.Handle(ctx, "wecho", gobBody)
	if err != nil {
		t.Fatal(err)
	}
	if wire.IsFrame(out) {
		t.Fatal("gob request got a wire response")
	}
	wireBody, _, err := EncodeBody(wireReq{Msg: "a", N: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err = mux.Handle(ctx, "wecho", wireBody)
	if err != nil {
		t.Fatal(err)
	}
	if !wire.IsFrame(out) {
		t.Fatal("wire request got a gob response")
	}
}
