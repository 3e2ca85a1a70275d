// Package transport provides the RPC layer the platform's distributed pieces
// (lookup service, extension bases, adaptation services) communicate over.
// Every request and response body is a wire frame (internal/wire): a message
// type travels only if it has a wire codec, Register refuses a handler whose
// request or response type lacks one, and a body that is not a frame fails
// to decode with ErrDecode.
// Two interchangeable fabrics are provided: an in-process fabric whose
// connectivity is steered by the mobility simulator (standing in for the
// wireless network of the paper's testbed) and a real TCP fabric.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"

	"repro/internal/wire"
)

// Handler serves RPC requests addressed to one node.
//
// Body ownership, which every fabric keeps: the request body passed to
// Handle is handed over for good. No fabric writes to it or reuses its
// memory afterwards, so a handler may keep views into it (Register decodes
// StringView fields as views) for as long as it likes. Several Handle calls
// may share one body, so a handler must not write to it either. The response body Handle returns is handed to the
// fabric in turn: a wrapper passes it on unchanged or replaces it, and keeps
// no reference to it, because a fabric may recycle a body Register encoded
// once it has read it.
type Handler interface {
	Handle(ctx context.Context, method string, body []byte) ([]byte, error)
}

// Caller issues RPC requests to remote nodes. Call encodes req and decodes
// into resp (a pointer, or nil) before it returns, and keeps neither
// afterwards, so a caller may reuse both for its next call. The request body
// Call encodes is handed to the handler for good (see Handler). resp owns
// everything decoded into it: its strings and byte slices are copies, never
// views into a response body, which the fabric may recycle.
type Caller interface {
	Call(ctx context.Context, to, method string, req, resp any) error
}

// Errors surfaced by the transports.
var (
	// ErrUnreachable indicates no route to the destination (node out of
	// range, partitioned or gone).
	ErrUnreachable = errors.New("transport: destination unreachable")
	// ErrNoMethod indicates the destination does not serve the method.
	ErrNoMethod = errors.New("transport: no such method")
	// ErrDecode indicates a request or response body failed to decode. Its
	// text is the prefix every decode failure carries, so a RemoteError from
	// a handler that could not decode its request unwraps to it.
	ErrDecode = errors.New("transport: decode:")
	// ErrIncompatible indicates the TCP peer acked the handshake with another
	// envelope or wire.Version. It holds for as long as the two builds do, so
	// it is not a transient failure.
	ErrIncompatible = errors.New("transport: incompatible peer")
)

// Transient reports whether err means the call got no answer: no route to
// the destination, a deadline that passed, or a network timeout. An answer
// is never transient, whatever it says: a remote application error or a load
// shed shows the destination is reachable.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	var ne net.Error
	return errors.Is(err, ErrUnreachable) ||
		errors.Is(err, context.DeadlineExceeded) ||
		(errors.As(err, &ne) && ne.Timeout())
}

// RemoteError wraps an error string returned by the remote handler. When the
// remote message matches a registered sentinel (see RegisterRemoteSentinel),
// Unwrap exposes it so errors.Is behaves identically whether the error
// crossed a process boundary or not.
type RemoteError struct {
	Method string
	Msg    string

	sentinel error
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Method, e.Msg)
}

// Unwrap exposes the sentinel recovered from the remote message, if any.
//
//lint:allow shipped (reached through errors.Is and errors.As, which no name match sees)
func (e *RemoteError) Unwrap() error { return e.sentinel }

// NewRemoteError builds the error a fabric reports for a remote handler
// failure, mapping well-known sentinel texts back to their sentinels. Every
// fabric (in-proc, TCP, simnet) constructs remote errors through this so
// errors.Is(err, ErrNoMethod) etc. hold on all of them.
func NewRemoteError(method, msg string) *RemoteError {
	return &RemoteError{Method: method, Msg: msg, sentinel: matchRemoteSentinel(msg)}
}

var (
	sentinelMu sync.RWMutex
	sentinels  = []error{ErrNoMethod, ErrDecode, ErrOverloaded}
)

// RegisterRemoteSentinel adds sentinel errors that should survive a trip over
// the wire: a remote error whose message contains a registered sentinel's
// text unwraps to that sentinel. Packages register their wire-visible
// sentinels at init (e.g. lease.ErrExpired), keeping the transport layer free
// of upward dependencies.
func RegisterRemoteSentinel(errs ...error) {
	sentinelMu.Lock()
	defer sentinelMu.Unlock()
	for _, err := range errs {
		if err == nil || err.Error() == "" {
			continue
		}
		dup := false
		for _, have := range sentinels {
			if have == err {
				dup = true
				break
			}
		}
		if !dup {
			sentinels = append(sentinels, err)
		}
	}
}

// matchRemoteSentinel finds the registered sentinel whose text appears in
// msg, preferring the longest match so more specific sentinels win.
func matchRemoteSentinel(msg string) error {
	sentinelMu.RLock()
	defer sentinelMu.RUnlock()
	var best error
	bestLen := 0
	for _, s := range sentinels {
		text := s.Error()
		if len(text) > bestLen && strings.Contains(msg, text) {
			best, bestLen = s, len(text)
		}
	}
	return best
}

// EncodeBody encodes v, which must have a wire codec, as a wire frame. The
// second result is always true when err is nil; it and the useWire
// parameter, which every caller sets, survive only for existing callers.
func EncodeBody(v any, useWire bool) ([]byte, bool, error) {
	m, ok := v.(wire.Marshaler)
	if !ok {
		return nil, false, fmt.Errorf("transport: encode: %T has no wire codec", v)
	}
	return wire.Marshal(m), true, nil
}

// Decode decodes a wire-frame body into v, a pointer to a type with a wire
// codec. v keeps nothing of data: decoded strings are copies. Every failure,
// a body that is not a frame included, wraps ErrDecode.
func Decode(data []byte, v any) error {
	return decode(data, v, wire.Unmarshal)
}

// decode is Decode with the unmarshal function chosen: Register decodes a
// handed-over request body with wire.UnmarshalView.
func decode(data []byte, v any, unmarshal func([]byte, wire.Unmarshaler) error) error {
	u, ok := v.(wire.Unmarshaler)
	if !ok {
		return fmt.Errorf("%w %T has no wire codec", ErrDecode, v)
	}
	if err := unmarshal(data, u); err != nil {
		return fmt.Errorf("%w %v", ErrDecode, err)
	}
	return nil
}

// Mux dispatches methods to registered handler functions. It is safe for
// concurrent use; handlers may be added while serving.
type Mux struct {
	mu       sync.RWMutex
	handlers map[string]func(ctx context.Context, body []byte) ([]byte, error)
}

// NewMux returns an empty Mux.
func NewMux() *Mux {
	return &Mux{handlers: make(map[string]func(ctx context.Context, body []byte) ([]byte, error))}
}

// HandleRaw registers a raw body handler for method.
func (m *Mux) HandleRaw(method string, fn func(ctx context.Context, body []byte) ([]byte, error)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[method] = fn
}

// Handle implements Handler.
func (m *Mux) Handle(ctx context.Context, method string, body []byte) ([]byte, error) {
	m.mu.RLock()
	fn, ok := m.handlers[method]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoMethod, method)
	}
	return fn(ctx, body)
}

// Methods returns the registered method names (order unspecified).
//
//lint:allow shipped (test seam: overload's class-table test enumerates every served method)
func (m *Mux) Methods() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.handlers))
	for k := range m.handlers {
		out = append(out, k)
	}
	return out
}

// Register installs a typed handler for method on mux. Both Req (through its
// pointer) and Resp must have a wire codec; Register panics otherwise, so a
// type that could never cross the wire fails where it is registered rather
// than on its first call.
//
// Per call Register allocates no box: the request and response live in
// pooled boxes shared by every registration of their type, and fn gets a
// copy of the request. The request decodes with wire.UnmarshalView: the
// fields its type reads with StringView, such as a renewal's lease IDs, are
// views into the request body, which the fabric handed over for good (see
// Handler), so fn may keep them, as map keys for instance, and a batch of
// them costs no allocation each. The response is encoded into a pooled
// buffer. When the call arrived under a CallDeadline the fabric serves, the
// fabric recycles that buffer once it has read the body; otherwise the body
// is a copy.
func Register[Req, Resp any](mux *Mux, method string, fn func(ctx context.Context, req Req) (Resp, error)) {
	if _, ok := any(new(Req)).(wire.Unmarshaler); !ok {
		panic(fmt.Sprintf("transport: Register %s: request type %T has no wire codec", method, *new(Req)))
	}
	if _, ok := any(*new(Resp)).(wire.Marshaler); !ok {
		panic(fmt.Sprintf("transport: Register %s: response type %T has no wire codec", method, *new(Resp)))
	}
	reqs, resps := boxPool[Req](), boxPool[Resp]()
	mux.HandleRaw(method, func(ctx context.Context, body []byte) ([]byte, error) {
		req := reqs.Get().(*Req)
		err := decode(body, req, wire.UnmarshalView)
		var resp Resp
		if err == nil {
			resp, err = fn(ctx, *req)
		}
		*req = *new(Req)
		reqs.Put(req)
		if err != nil {
			return nil, err
		}
		box := resps.Get().(*Resp)
		*box = resp
		out := encodeResponse(ctx, any(box).(wire.Marshaler))
		*box = *new(Resp)
		resps.Put(box)
		return out, nil
	})
}

// boxPools holds one *sync.Pool of *T per type T Register boxes, keyed by
// reflect.Type: one pool per type, however many methods register it.
var boxPools sync.Map

func boxPool[T any]() *sync.Pool {
	key := reflect.TypeFor[T]()
	if p, ok := boxPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := boxPools.LoadOrStore(key, &sync.Pool{New: func() any { return new(T) }})
	return p.(*sync.Pool)
}

// encodeResponse frames m into a pooled encoder. It leaves the encoder with
// the CallDeadline ctx is, if a fabric serves it, and returns the encoder's
// bytes; otherwise it returns a copy and pools the encoder at once.
func encodeResponse(ctx context.Context, m wire.Marshaler) []byte {
	e := wire.GetEncoder()
	e.Frame(m)
	if cd, ok := ctx.(*CallDeadline); ok && cd.keepBody(e) {
		return e.Data()
	}
	out := append([]byte(nil), e.Data()...)
	wire.PutEncoder(e)
	return out
}

// Invoke performs a typed call through c.
func Invoke[Req, Resp any](ctx context.Context, c Caller, to, method string, req Req) (Resp, error) {
	var resp Resp
	err := c.Call(ctx, to, method, req, &resp)
	return resp, err
}
