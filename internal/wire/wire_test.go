package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"strings"
	"testing"
)

// testMsg exercises every primitive the codec offers.
type testMsg struct {
	U  uint64
	I  int64
	B  byte
	OK bool
	S  string
	Bs []byte
	Ss []string
	M  map[string]string
}

func (m testMsg) MarshalWire(e *Encoder) {
	e.Uvarint(m.U)
	e.Varint(m.I)
	e.Byte(m.B)
	e.Bool(m.OK)
	e.String(m.S)
	e.Bytes(m.Bs)
	e.StringSlice(m.Ss)
	e.StringMap(m.M)
}

func (m *testMsg) UnmarshalWire(d *Decoder) error {
	m.U = d.Uvarint()
	m.I = d.Varint()
	m.B = d.Byte()
	m.OK = d.Bool()
	m.S = d.String()
	m.Bs = d.Bytes()
	m.Ss = d.StringSlice()
	m.M = d.StringMap()
	return d.Err()
}

func TestRoundTrip(t *testing.T) {
	msgs := []testMsg{
		{},
		{U: 1, I: -1, B: 0xff, OK: true, S: "hello", Bs: []byte{0, 1, 2}},
		{U: math.MaxUint64, I: math.MinInt64, S: strings.Repeat("x", 300)},
		{Ss: []string{"", "a", "bb"}, M: map[string]string{"k2": "v2", "k1": "v1", "": "zero"}},
	}
	for i, in := range msgs {
		data := Marshal(in)
		if !IsFrame(data) {
			t.Fatalf("msg %d: Marshal output is not a frame: % x", i, data[:3])
		}
		var out testMsg
		if err := Unmarshal(data, &out); err != nil {
			t.Fatalf("msg %d: Unmarshal: %v", i, err)
		}
		// Canonical form decodes empty containers as nil; normalize in.
		if len(in.Bs) == 0 {
			in.Bs = nil
		}
		if len(in.Ss) == 0 {
			in.Ss = nil
		}
		if len(in.M) == 0 {
			in.M = nil
		}
		if out.U != in.U || out.I != in.I || out.B != in.B || out.OK != in.OK || out.S != in.S ||
			!bytes.Equal(out.Bs, in.Bs) || len(out.Ss) != len(in.Ss) || len(out.M) != len(in.M) {
			t.Fatalf("msg %d: round trip mismatch:\n in: %+v\nout: %+v", i, in, out)
		}
		for j := range in.Ss {
			if out.Ss[j] != in.Ss[j] {
				t.Fatalf("msg %d: Ss[%d] = %q, want %q", i, j, out.Ss[j], in.Ss[j])
			}
		}
		for k, v := range in.M {
			if out.M[k] != v {
				t.Fatalf("msg %d: M[%q] = %q, want %q", i, k, out.M[k], v)
			}
		}
		// Re-encoding the decoded value must give the identical bytes.
		if again := Marshal(out); !bytes.Equal(again, data) {
			t.Fatalf("msg %d: re-encode drifted:\n 1st: % x\n 2nd: % x", i, data, again)
		}
	}
}

func TestMapEncodingIsSorted(t *testing.T) {
	m := testMsg{M: map[string]string{"b": "2", "a": "1", "c": "3"}}
	data := Marshal(m)
	for i := 0; i < 16; i++ {
		if !bytes.Equal(Marshal(m), data) {
			t.Fatal("map encoding is not deterministic across runs")
		}
	}
}

func TestUnmarshalRejects(t *testing.T) {
	good := Marshal(testMsg{S: "ok", U: 7})
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrNotFrame},
		{"gob-like", []byte{0x2b, 0x7f, 0x03}, ErrNotFrame},
		{"short header", good[:2], ErrNotFrame},
		{"truncated body", good[:len(good)-1], ErrTruncated},
		{"trailing bytes", append(append([]byte{}, good...), 0xAA), ErrTrailing},
	}
	for _, tc := range cases {
		var out testMsg
		err := Unmarshal(tc.data, &out)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// Wrong version is rejected too (distinct message, no sentinel).
	bad := append([]byte{}, good...)
	bad[2] = Version + 1
	var out testMsg
	if err := Unmarshal(bad, &out); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("future version: got %v, want unsupported-version error", err)
	}
}

func TestDecoderBoundsHostileLengths(t *testing.T) {
	// A string claiming 2^40 bytes in a 10-byte message must error, not
	// allocate.
	e := GetEncoder()
	defer PutEncoder(e)
	e.Uvarint(1 << 40)
	d := NewDecoder(e.Data())
	if s := d.String(); s != "" || d.Err() == nil {
		t.Fatalf("hostile string length: got %q, err %v", s, d.Err())
	}
	e.buf = e.buf[:0]
	e.Uvarint(1 << 40)
	d = NewDecoder(e.Data())
	if n := d.Len(); n != 0 || d.Err() == nil {
		t.Fatalf("hostile count: got %d, err %v", n, d.Err())
	}
}

func TestDecoderRejectsNonCanonical(t *testing.T) {
	// Unsorted map keys.
	e := GetEncoder()
	e.Len(2)
	e.String("b")
	e.String("1")
	e.String("a")
	e.String("2")
	d := NewDecoder(e.Data())
	if m := d.StringMap(); m != nil || d.Err() == nil {
		t.Fatalf("unsorted map: got %v, err %v", m, d.Err())
	}
	PutEncoder(e)
	// Bool bytes other than 0/1.
	d = NewDecoder([]byte{2})
	if d.Bool(); d.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func TestStickyError(t *testing.T) {
	d := NewDecoder([]byte{})
	_ = d.Uvarint()
	first := d.Err()
	if first == nil {
		t.Fatal("expected error on empty input")
	}
	_ = d.String()
	_ = d.Bytes()
	if d.Err() != first {
		t.Fatalf("sticky error replaced: %v -> %v", first, d.Err())
	}
}

// TestGobCannotStartWithZero pins the property the self-describing header
// depends on: a gob stream never begins with 0x00, and a gob decoder fed a
// wire frame errors out promptly instead of hanging or succeeding.
func TestGobCannotStartWithZero(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(testMsg{S: "x"}); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] == 0x00 {
		t.Fatalf("gob stream starts with 0x00: % x", buf.Bytes()[:4])
	}
	frame := Marshal(testMsg{S: "x"})
	var out testMsg
	if err := gob.NewDecoder(bytes.NewReader(frame)).Decode(&out); err == nil {
		t.Fatal("gob decoder accepted a wire frame")
	}
}

func TestEncoderPoolReuse(t *testing.T) {
	e := GetEncoder()
	e.String("scratch")
	PutEncoder(e)
	e2 := GetEncoder()
	if len(e2.Data()) != 0 {
		t.Fatalf("pooled encoder not reset: % x", e2.Data())
	}
	PutEncoder(e2)
}

// varintMsg is a message without strings or slices, whose decode needs no
// allocation of its own.
type varintMsg struct{ A, B int64 }

func (m varintMsg) MarshalWire(e *Encoder) { e.Varint(m.A); e.Varint(m.B) }

func (m *varintMsg) UnmarshalWire(d *Decoder) error {
	m.A, m.B = d.Varint(), d.Varint()
	return d.Err()
}

// TestUnmarshalAllocs pins that Unmarshal itself allocates nothing: its
// decoder comes from a pool, on success and on a trailing-bytes failure alike.
func TestUnmarshalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the decoder pool drops items at random under -race")
	}
	frame := Marshal(varintMsg{A: -7, B: 1 << 40})
	var m varintMsg
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := Unmarshal(frame, &m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Unmarshal: %.0f allocs, want 0", allocs)
	}
	if m != (varintMsg{A: -7, B: 1 << 40}) {
		t.Fatalf("decoded %+v", m)
	}
	// A decoder recycled after a failed decode starts clean.
	if err := Unmarshal(append(frame[:len(frame):len(frame)], 0), &m); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing byte: %v", err)
	}
	if err := Unmarshal(frame, &m); err != nil {
		t.Fatalf("decode after a failure: %v", err)
	}
}
