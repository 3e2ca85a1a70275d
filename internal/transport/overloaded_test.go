package transport

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestOverloadedGoldenText freezes the shed sentinel's wire text. The hint
// travels inside the error string — that is what crosses every fabric and
// what old peers echo back — so these literals are a compatibility surface:
// changing them strands the retry-after hint on mixed-version fleets.
func TestOverloadedGoldenText(t *testing.T) {
	cases := []struct {
		err      error
		text     string
		hint     time.Duration
		overload bool
	}{
		{Overloaded(0), "transport: overloaded", 0, true},
		{Overloaded(250 * time.Millisecond), "transport: overloaded; retry-after-ms=250", 250 * time.Millisecond, true},
		// Sub-millisecond hints round up: a zero would read as "no hint".
		{Overloaded(time.Microsecond), "transport: overloaded; retry-after-ms=1", time.Millisecond, true},
		{ErrOverloaded, "transport: overloaded", 0, true},
		{ErrUnreachable, "transport: destination unreachable", 0, false},
	}
	for _, c := range cases {
		if got := c.err.Error(); got != c.text {
			t.Errorf("text = %q, want %q", got, c.text)
		}
		hint, ok := RetryAfterHint(c.err)
		if ok != c.overload || hint != c.hint {
			t.Errorf("RetryAfterHint(%q) = %v, %v; want %v, %v", c.err, hint, ok, c.hint, c.overload)
		}
	}
}

// TestOverloadedRemoteSentinel proves the sentinel and its hint survive the
// remote-error round trip every fabric uses: the server-side error text is
// re-wrapped by NewRemoteError on the caller and still unwraps and parses.
func TestOverloadedRemoteSentinel(t *testing.T) {
	remote := NewRemoteError("base.query", Overloaded(75*time.Millisecond).Error())
	if !errors.Is(remote, ErrOverloaded) {
		t.Fatalf("remote error %q does not unwrap to ErrOverloaded", remote)
	}
	if hint, ok := RetryAfterHint(remote); !ok || hint != 75*time.Millisecond {
		t.Fatalf("hint = %v, %v; want 75ms, true", hint, ok)
	}
}

// overloadedEnvelopeGolden is the frozen wire response envelope for a
// handler that shed with Overloaded(250ms): request ID 1, errText string,
// empty body.
const overloadedEnvelopeGolden = "01297472616e73706f72743a206f7665726c6f616465643b2072657472792d61667465722d6d733d32353000"

// TestOverloadedEnvelopeGolden drives a raw TCP wire exchange against a
// shedding handler and compares the response envelope byte for byte.
func TestOverloadedEnvelopeGolden(t *testing.T) {
	mux := NewMux()
	mux.HandleRaw("shed", func(ctx context.Context, body []byte) ([]byte, error) {
		return nil, Overloaded(250 * time.Millisecond)
	})
	srv, err := ServeTCP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, br := muxDial(t, srv.Addr())

	e := wire.GetEncoder()
	e.Uvarint(1) // request ID
	e.String("shed")
	e.String("") // trace ID
	e.String("") // span ID
	e.Bytes(nil)
	e.Byte(0)   // flags
	e.Varint(0) // budget
	payload := append([]byte{}, e.Data()...)
	wire.PutEncoder(e)
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := conn.Write(append(lenBuf[:n], payload...)); err != nil {
		t.Fatal(err)
	}

	if got := hex.EncodeToString(rawEnvelope(t, br)); got != overloadedEnvelopeGolden {
		t.Fatalf("shed response envelope drifted:\n got: %s\nwant: %s", got, overloadedEnvelopeGolden)
	}
}

// FuzzRetryAfterHint hammers the hint parser with arbitrary remote error
// texts: it must never panic, must report ok exactly when the sentinel text
// is present, and must never return a negative hint.
func FuzzRetryAfterHint(f *testing.F) {
	f.Add("transport: overloaded")
	f.Add("transport: overloaded; retry-after-ms=250")
	f.Add("transport: overloaded; retry-after-ms=")
	f.Add("transport: overloaded; retry-after-ms=99999999999999999999999")
	f.Add("retry-after-ms=5")
	f.Add("some other error")
	f.Fuzz(func(t *testing.T, msg string) {
		err := NewRemoteError("m", msg)
		hint, ok := RetryAfterHint(err)
		if ok != errors.Is(err, ErrOverloaded) {
			t.Fatalf("ok = %v but errors.Is = %v for %q", ok, !ok, msg)
		}
		if strings.Contains(msg, ErrOverloaded.Error()) && !ok {
			t.Fatalf("sentinel text present but ok=false for %q", msg)
		}
		if hint < 0 {
			t.Fatalf("negative hint %v for %q", hint, msg)
		}
	})
}
