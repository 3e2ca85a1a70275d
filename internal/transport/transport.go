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
	"strings"
	"sync"

	"repro/internal/wire"
)

// Handler serves RPC requests addressed to one node.
type Handler interface {
	Handle(ctx context.Context, method string, body []byte) ([]byte, error)
}

// Caller issues RPC requests to remote nodes. Call encodes req and decodes
// into resp (a pointer, or nil) before it returns, and keeps neither
// afterwards, so a caller may reuse both for its next call.
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
	// RetryTransient never retries it.
	ErrIncompatible = errors.New("transport: incompatible peer")
)

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
// codec. Every failure, a body that is not a frame included, wraps
// ErrDecode.
func Decode(data []byte, v any) error {
	u, ok := v.(wire.Unmarshaler)
	if !ok {
		return fmt.Errorf("%w %T has no wire codec", ErrDecode, v)
	}
	if err := wire.Unmarshal(data, u); err != nil {
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
func Register[Req, Resp any](mux *Mux, method string, fn func(ctx context.Context, req Req) (Resp, error)) {
	if _, ok := any(new(Req)).(wire.Unmarshaler); !ok {
		panic(fmt.Sprintf("transport: Register %s: request type %T has no wire codec", method, *new(Req)))
	}
	if _, ok := any(*new(Resp)).(wire.Marshaler); !ok {
		panic(fmt.Sprintf("transport: Register %s: response type %T has no wire codec", method, *new(Resp)))
	}
	mux.HandleRaw(method, func(ctx context.Context, body []byte) ([]byte, error) {
		var req Req
		if err := Decode(body, &req); err != nil {
			return nil, err
		}
		resp, err := fn(ctx, req)
		if err != nil {
			return nil, err
		}
		out, _, err := EncodeBody(resp, true)
		return out, err
	})
}

// Invoke performs a typed call through c.
func Invoke[Req, Resp any](ctx context.Context, c Caller, to, method string, req Req) (Resp, error) {
	var resp Resp
	err := c.Call(ctx, to, method, req, &resp)
	return resp, err
}
