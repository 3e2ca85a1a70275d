package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// wireReq/wireResp are the wire-coded bodies every test here sends.
type (
	wireReq  = testutil.WireReq
	wireResp = testutil.WireResp
)

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

// noCodec has no wire codec, so it can never be a body.
type noCodec struct{ X int }

func TestEncodeBodyPicksCodecPerType(t *testing.T) {
	for _, useWire := range []bool{true, false} {
		data, usedWire, err := EncodeBody(wireReq{Msg: "x", N: 1}, useWire)
		if err != nil || !usedWire || !wire.IsFrame(data) {
			t.Fatalf("useWire=%v: usedWire=%v frame=%v err=%v", useWire, usedWire, wire.IsFrame(data), err)
		}
	}
	if data, _, err := EncodeBody(noCodec{X: 1}, true); err == nil {
		t.Fatalf("type without a codec encoded to % x, want an error", data)
	}
}

func TestDecodeDispatchesOnFrameHeader(t *testing.T) {
	in := wireReq{Msg: "hello", N: 42}
	var out wireReq
	if err := Decode(wire.Marshal(in), &out); err != nil || out != in {
		t.Fatalf("frame: got %+v err %v, want %+v", out, err, in)
	}
	// A body without the frame header is refused, whatever it holds.
	var gobBody bytes.Buffer
	if err := gob.NewEncoder(&gobBody).Encode(in); err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{nil, []byte("not a frame"), gobBody.Bytes()} {
		if err := Decode(body, &out); !errors.Is(err, ErrDecode) {
			t.Fatalf("non-frame % x: err = %v, want ErrDecode", body, err)
		}
	}
	// A frame for a codec-less type errors with ErrDecode rather than
	// guessing.
	var nc noCodec
	if err := Decode(wire.Marshal(in), &nc); !errors.Is(err, ErrDecode) {
		t.Fatalf("frame into codec-less type: %v", err)
	}
}

// Register refuses a request or response type without a wire codec when the
// handler is registered, not on its first call.
func TestRegisterPanicsWithoutCodec(t *testing.T) {
	for name, register := range map[string]func(*Mux){
		"request": func(m *Mux) {
			Register(m, "bad", func(context.Context, noCodec) (wireResp, error) { return wireResp{}, nil })
		},
		"response": func(m *Mux) {
			Register(m, "bad", func(context.Context, wireReq) (noCodec, error) { return noCodec{}, nil })
		},
		"struct{}": func(m *Mux) {
			Register(m, "bad", func(context.Context, wireReq) (struct{}, error) { return struct{}{}, nil })
		},
	} {
		mux := NewMux()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s without a codec: Register did not panic", name)
				}
			}()
			register(mux)
		}()
		if len(mux.Methods()) != 0 {
			t.Errorf("%s without a codec: method registered anyway", name)
		}
	}
}

// A response body that is not a wire frame fails the call with ErrDecode on
// every fabric, and a request body that is not one fails the handler with
// ErrDecode before it runs.
func TestNonFrameBodyIsErrDecode(t *testing.T) {
	mux := newWireEchoMux()
	mux.HandleRaw("raw", func(context.Context, []byte) ([]byte, error) {
		return []byte("not a frame"), nil
	})
	if _, err := mux.Handle(context.Background(), "wecho", []byte("not a frame")); !errors.Is(err, ErrDecode) {
		t.Fatalf("non-frame request: err = %v, want ErrDecode", err)
	}

	fabric := NewInProc()
	stop, err := fabric.Serve("b", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	srv, err := ServeTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp := NewTCPCaller()
	defer tcp.Close()
	for name, call := range map[string]func() error{
		"inproc": func() error {
			return fabric.Node("a").Call(context.Background(), "b", "raw", wireReq{}, &wireResp{})
		},
		"tcp": func() error {
			return tcp.Call(context.Background(), srv.Addr(), "raw", wireReq{}, &wireResp{})
		},
	} {
		if err := call(); !errors.Is(err, ErrDecode) {
			t.Errorf("%s: err = %v, want ErrDecode", name, err)
		}
	}
}

func TestInProcWireBodiesCounted(t *testing.T) {
	fabric := NewInProc()
	reg := metrics.New()
	fabric.Instrument(reg)
	stop, _ := fabric.Serve("b", newWireEchoMux())
	defer stop()
	req := wireReq{Msg: "ab", N: 2}
	resp, err := Invoke[wireReq, wireResp](context.Background(), fabric.Node("a"), "b", "wecho", req)
	if err != nil || resp.Msg != "abab" {
		t.Fatalf("resp=%q err=%v", resp.Msg, err)
	}
	// Both directions travel as wire frames: the byte counters read exactly
	// the frames' lengths.
	if got, want := testutil.Counter(reg, "transport.bytes_sent"), uint64(len(wire.Marshal(req))); got != want {
		t.Fatalf("bytes_sent = %d, want %d (one wire frame)", got, want)
	}
	if got, want := testutil.Counter(reg, "transport.bytes_received"), uint64(len(wire.Marshal(resp))); got != want {
		t.Fatalf("bytes_received = %d, want %d (one wire frame)", got, want)
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
	req := wireReq{Msg: "ab", N: 3}
	resp, err := Invoke[wireReq, wireResp](context.Background(), caller, srv.Addr(), "wecho", req)
	if err != nil || resp.Msg != "ababab" {
		t.Fatalf("resp=%q err=%v", resp.Msg, err)
	}
	if got := testutil.Counter(sreg, "transport.serve_wire_conns"); got != 1 {
		t.Fatalf("serve_wire_conns = %d, want 1", got)
	}
	if got, want := testutil.Counter(creg, "transport.bytes_sent"), uint64(len(wire.Marshal(req))); got != want {
		t.Fatalf("bytes_sent = %d, want %d (one wire frame)", got, want)
	}
}

// TestTCPIncompatibleAckRefused pins the client side of a version mismatch: a
// peer that acks the handshake with another wire.Version fails the call with
// ErrIncompatible, which is not retried, and the refused connection is not
// pooled, so every call dials exactly once.
func TestTCPIncompatibleAckRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	defer ln.Close()
	var dials atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				var preface [4]byte
				if _, err := io.ReadFull(conn, preface[:]); err != nil {
					return
				}
				_, _ = conn.Write([]byte{wire.Magic, envTag, wire.Version + 1})
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()
	caller := NewTCPCaller()
	defer caller.Close()
	for i := int64(1); i <= 3; i++ {
		err := caller.Call(context.Background(), ln.Addr().String(), "wecho", wireReq{Msg: "x", N: 1}, nil)
		if !errors.Is(err, ErrIncompatible) {
			t.Fatalf("call %d: err = %v, want ErrIncompatible", i, err)
		}
		if Transient(err) {
			t.Fatalf("call %d: Transient(%v) = true, want false", i, err)
		}
		if got := dials.Load(); got != i {
			t.Fatalf("after call %d: %d dials, want %d", i, got, i)
		}
		if mc := pooledMux(caller, ln.Addr().String()); mc != nil {
			t.Fatalf("call %d: refused connection was pooled", i)
		}
	}
}

// TestTCPIncompatiblePrefaceAckedThenClosed pins the server side: a
// well-formed preface naming another wire.Version still gets the server's own
// ack, so the client can name the mismatch, and then the server hangs up
// without serving the connection.
func TestTCPIncompatiblePrefaceAckedThenClosed(t *testing.T) {
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
	if _, err := conn.Write([]byte{0x00, wire.Magic, envTag, wire.Version + 1}); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if want := []byte{wire.Magic, envTag, wire.Version}; !bytes.Equal(got, want) {
		t.Fatalf("server sent % x then closed, want exactly its ack % x", got, want)
	}
	if got := testutil.Counter(sreg, "transport.serve_wire_conns"); got != 0 {
		t.Fatalf("serve_wire_conns = %d, want 0", got)
	}
}

// TestTCPRefusesGobClient pins that the server speaks one protocol: a client
// opening with a gob envelope is hung up on before any handler runs, and wire
// clients of the same server are unaffected.
func TestTCPRefusesGobClient(t *testing.T) {
	var handled atomic.Int64
	mux := newWireEchoMux()
	mux.HandleRaw("count", func(_ context.Context, body []byte) ([]byte, error) {
		handled.Add(1)
		return body, nil
	})
	srv, err := ServeTCP("127.0.0.1:0", mux)
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
	envelope := struct {
		Method string
		Body   []byte
	}{"count", wire.Marshal(wireReq{Msg: "x", N: 1})}
	if err := gob.NewEncoder(conn).Encode(&envelope); err != nil {
		t.Fatal(err)
	}
	var buf [1]byte
	n, err := conn.Read(buf[:])
	var ne net.Error
	if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("gob client answered: read %d bytes, err %v; want a hang-up", n, err)
	}
	if got := handled.Load(); got != 0 {
		t.Fatalf("handler ran %d times for a gob client, want 0", got)
	}

	caller := NewTCPCaller()
	defer caller.Close()
	resp, err := Invoke[wireReq, wireResp](context.Background(), caller, srv.Addr(), "wecho", wireReq{Msg: "w", N: 2})
	if err != nil || resp.Msg != "ww" {
		t.Fatalf("wire client after the gob client: resp=%q err=%v", resp.Msg, err)
	}
	if got := testutil.Counter(sreg, "transport.serve_requests"); got != 1 {
		t.Fatalf("serve_requests = %d, want 1 (the wire call only)", got)
	}
	if got := testutil.Counter(sreg, "transport.serve_wire_conns"); got != 1 {
		t.Fatalf("serve_wire_conns = %d, want 1", got)
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
// [0x00, Magic, wire.Version], which is not a well-formed preface, and the
// server must hang up without an ack instead of exchanging envelopes that
// client would misparse.
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

// TestWireResponseCodecFollowsResponseType pins that a Register handler
// answers with a wire frame of its response type.
func TestWireResponseCodecFollowsResponseType(t *testing.T) {
	out, err := newWireEchoMux().Handle(context.Background(), "wecho", wire.Marshal(wireReq{Msg: "a", N: 2}))
	if err != nil {
		t.Fatal(err)
	}
	var resp wireResp
	if err := wire.Unmarshal(out, &resp); err != nil || resp.Msg != "aa" {
		t.Fatalf("response %q (% x): %v", resp.Msg, out, err)
	}
}
