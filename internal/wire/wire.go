// Package wire is the platform's hand-rolled, zero-reflection binary codec,
// the one codec every RPC body travels in. Messages marshal themselves field
// by field into a flat byte buffer: unsigned varints for counts and lengths,
// zigzag varints for signed integers, length-prefixed UTF-8 for strings and
// raw bytes, and key-sorted entries for string maps so the same value always
// produces the same bytes (replays and golden vectors are bit-for-bit
// stable).
//
// Every marshalled message is framed with a 3-byte self-describing header:
//
//	offset 0: 0x00  — a lead byte no gob stream can start with (gob's
//	                  leading message-length varint is never zero)
//	offset 1: 0xC6  — the wire magic
//	offset 2: Version — the codec version
//
// A body without the header is not a message: transport.Decode refuses it.
// The 0x00 lead byte matters only for the TCP handshake, whose preface
// starts with the same bytes, so the server hangs up on a gob client before
// it reads an envelope. The version byte makes a format change explicit: a
// decoder refuses any other version.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"unsafe"
)

// Version is the wire-format version emitted by this build. Decoders accept
// exactly this version; bumping it is a format change and must come with new
// golden vectors. Version 2 added Extension.Flows (declared information-flow
// rules) between Caps and Meta. Version 3 always encodes
// RenewBatchReq.WantObs and puts RenewBatchResp.Obs behind a presence bool.
// Peers of different versions do not talk: the TCP handshake carries Version
// and refuses a mismatch (transport.ErrIncompatible).
const Version = 3

// Magic is the second frame-header byte. The TCP fabric reuses it in its
// handshake preface and ack.
const Magic = 0xC6

// Frame header bytes (see the package comment for the layout).
const (
	headerLen  = 3
	headerZero = 0x00
)

// Marshaler is implemented by message types that marshal themselves with the
// wire codec. Implementations append fields to e in declaration order and
// never fail: the encoder is infallible by construction.
type Marshaler interface {
	MarshalWire(e *Encoder)
}

// Unmarshaler is implemented by message types that unmarshal themselves with
// the wire codec. Implementations read fields from d in the order they were
// written and report d.Err(); the decoder carries a sticky error so field
// reads need no individual checks. Unmarshal recycles d once UnmarshalWire
// returns, so implementations must not retain it.
type Unmarshaler interface {
	UnmarshalWire(d *Decoder) error
}

// IsFrame reports whether data begins with a wire frame header (any
// version).
func IsFrame(data []byte) bool {
	return len(data) >= headerLen && data[0] == headerZero && data[1] == Magic
}

// Errors surfaced by Unmarshal and the Decoder.
var (
	// ErrNotFrame reports data without a wire frame header.
	ErrNotFrame = errors.New("wire: not a wire frame")
	// ErrTruncated reports a frame that ended mid-field.
	ErrTruncated = errors.New("wire: truncated")
	// ErrTrailing reports leftover bytes after the top-level message.
	ErrTrailing = errors.New("wire: trailing bytes after message")
)

// Marshal frames and encodes m: header then fields. The returned buffer is
// freshly allocated (safe to retain); the scratch encoder is pooled.
func Marshal(m Marshaler) []byte {
	e := GetEncoder()
	e.Frame(m)
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	PutEncoder(e)
	return out
}

// Frame appends m to e as a framed message, header then fields. With a pooled
// encoder, the frame is e.Data() until e is reset or returned to the pool.
func (e *Encoder) Frame(m Marshaler) {
	e.buf = append(e.buf, headerZero, Magic, Version)
	m.MarshalWire(e)
}

// Unmarshal decodes a framed message into u, rejecting bad headers,
// unsupported versions, truncation and trailing garbage. Decoded strings and
// byte slices are copies: u keeps nothing of data.
func Unmarshal(data []byte, u Unmarshaler) error { return unmarshal(data, u, false) }

// UnmarshalView is Unmarshal with the fields u reads by StringView decoded as
// views into data, not copies: a batch of lease IDs costs no allocation per
// ID. The caller must own data for good: nobody may write to data, or reuse
// its memory, for as long as any decoded string lives. A body the transport
// handed over to a handler qualifies; a pooled or reused buffer never does.
// Fields read by String and byte slices are still copied.
func UnmarshalView(data []byte, u Unmarshaler) error { return unmarshal(data, u, true) }

func unmarshal(data []byte, u Unmarshaler, view bool) error {
	if !IsFrame(data) {
		return ErrNotFrame
	}
	if data[2] != Version {
		return fmt.Errorf("wire: unsupported version %d (have %d)", data[2], Version)
	}
	d := decPool.Get().(*Decoder)
	*d = Decoder{data: data[headerLen:], view: view}
	err := u.UnmarshalWire(d)
	if err == nil {
		err = d.err
	}
	if err == nil && d.off != len(d.data) {
		err = fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailing, d.off, len(d.data))
	}
	*d = Decoder{}
	decPool.Put(d)
	return err
}

// decPool recycles Unmarshal's decoders. Passed to an interface method, a
// decoder escapes to the heap; without the pool every decode allocates one.
var decPool = sync.Pool{New: func() any { return new(Decoder) }}

// Encoder appends wire-encoded fields to a byte buffer. The zero value is
// ready to use; hot paths take pooled encoders through GetEncoder.
type Encoder struct {
	buf []byte
}

// encPool recycles encoder scratch buffers across messages; oversized
// buffers (a huge extension push) are dropped rather than pinned forever.
var encPool = sync.Pool{New: func() any { return &Encoder{buf: make([]byte, 0, 512)} }}

// GetEncoder returns a reset pooled encoder.
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	return e
}

// PutEncoder returns e to the pool. The caller must not touch e (or buffers
// obtained from Data) afterwards.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > 1<<20 {
		return
	}
	encPool.Put(e)
}

// Data returns the encoded bytes. The slice aliases the encoder's buffer and
// is invalidated by further writes or PutEncoder.
func (e *Encoder) Data() []byte { return e.buf }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(u uint64) { e.buf = binary.AppendUvarint(e.buf, u) }

// Varint appends a zigzag-encoded signed varint (small magnitudes of either
// sign stay small on the wire).
func (e *Encoder) Varint(i int64) { e.buf = binary.AppendVarint(e.buf, i) }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a bool as one byte (0 or 1).
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a length-prefixed byte slice; nil encodes as length 0.
func (e *Encoder) Bytes(b []byte) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Len appends a slice or map element count.
func (e *Encoder) Len(n int) { e.buf = binary.AppendUvarint(e.buf, uint64(n)) }

// StringSlice appends a count-prefixed slice of strings.
func (e *Encoder) StringSlice(ss []string) {
	e.Len(len(ss))
	for _, s := range ss {
		e.String(s)
	}
}

// StringMap appends a count-prefixed map in ascending key order, so equal
// maps always encode to equal bytes.
func (e *Encoder) StringMap(m map[string]string) {
	e.Len(len(m))
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.String(k)
		e.String(m[k])
	}
}

// Decoder reads wire-encoded fields from a byte buffer. The first malformed
// field sets a sticky error; every later read returns a zero value, so
// unmarshal code reads all fields straight through and checks Err once.
//
// Body ownership: a decoder made by NewDecoder or Unmarshal copies every
// string out of its buffer. One made by UnmarshalView returns StringView
// fields as views into the buffer, which is sound only while nobody writes
// to that buffer or reuses its memory; UnmarshalView's caller promises that
// for the buffer's whole life, not just for the frame's decode.
type Decoder struct {
	data []byte
	off  int
	err  error
	view bool // StringView returns views into data (UnmarshalView)
}

// NewDecoder returns a decoder over data (no frame header expected — use
// Unmarshal for framed messages).
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// remaining reports the undecoded byte count.
func (d *Decoder) remaining() int { return len(d.data) - d.off }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("%w: bad uvarint at offset %d", ErrTruncated, d.off))
		return 0
	}
	d.off += n
	return u
}

// Varint reads a zigzag-encoded signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	i, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("%w: bad varint at offset %d", ErrTruncated, d.off))
		return 0
	}
	d.off += n
	return i
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail(fmt.Errorf("%w: byte at offset %d", ErrTruncated, d.off))
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

// Bool reads a bool, rejecting bytes other than 0 and 1 (a canonical
// encoding keeps round trips bit-identical).
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if d.err != nil {
		return false
	}
	if b > 1 {
		d.fail(fmt.Errorf("wire: bad bool byte %#x at offset %d", b, d.off-1))
		return false
	}
	return b == 1
}

// String reads a length-prefixed string. The bytes are copied, so the result
// does not alias the input buffer.
func (d *Decoder) String() string { return d.string(false) }

// StringView reads a length-prefixed string like String, but as a view into
// the decoder's buffer when the decoder came from UnmarshalView (a copy
// otherwise). A message decodes a field with it when the field is short-lived
// and read in bulk, like a renewal's lease IDs, so a batch of them costs no
// allocation each. A kept view pins its whole frame, so a field a handler
// keeps for long, like an extension's name, decodes with String.
func (d *Decoder) StringView() string { return d.string(d.view) }

func (d *Decoder) string(view bool) string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.remaining()) {
		d.fail(fmt.Errorf("%w: string of %d bytes with %d left", ErrTruncated, n, d.remaining()))
		return ""
	}
	if n == 0 {
		return ""
	}
	var s string
	if view {
		s = unsafe.String(&d.data[d.off], int(n))
	} else {
		s = string(d.data[d.off : d.off+int(n)])
	}
	d.off += int(n)
	return s
}

// Bytes reads a length-prefixed byte slice (copied; length 0 decodes as
// nil).
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.remaining()) {
		d.fail(fmt.Errorf("%w: %d bytes with %d left", ErrTruncated, n, d.remaining()))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.data[d.off:])
	d.off += int(n)
	return out
}

// Len reads an element count, bounded by the remaining bytes: every element
// costs at least one byte, so a count beyond that is hostile input and an
// allocation of that size would be unbounded.
func (d *Decoder) Len() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.remaining()) {
		d.fail(fmt.Errorf("%w: count %d with %d bytes left", ErrTruncated, n, d.remaining()))
		return 0
	}
	return int(n)
}

// StringSlice reads a count-prefixed slice of strings (length 0 decodes as
// nil).
func (d *Decoder) StringSlice() []string {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.String())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// StringMap reads a count-prefixed string map, rejecting unsorted or
// duplicate keys so every valid encoding is canonical (length 0 decodes as
// nil).
func (d *Decoder) StringMap() map[string]string {
	n := d.Len()
	if d.err != nil || n == 0 {
		return nil
	}
	out := make(map[string]string, n)
	prev := ""
	for i := 0; i < n; i++ {
		k := d.String()
		v := d.String()
		if d.err != nil {
			return nil
		}
		if i > 0 && k <= prev {
			d.fail(fmt.Errorf("wire: map keys out of order (%q after %q)", k, prev))
			return nil
		}
		prev = k
		out[k] = v
	}
	return out
}
