// Package transport provides the RPC layer the platform's distributed pieces
// (lookup service, extension bases, adaptation services) communicate over.
// A body's codec is a property of its message type alone: types with a wire
// codec (internal/wire) always travel as wire frames, every other type as
// gob, and the receiving side tells the two apart by the wire frame header.
// Two interchangeable fabrics are provided: an in-process fabric whose
// connectivity is steered by the mobility simulator (standing in for the
// wireless network of the paper's testbed) and a real TCP fabric.
package transport

import (
	"bytes"
	"context"
	"encoding/gob"
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

// Encode gob-encodes v.
func Encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// EncodeBody encodes v for a fabric: with the wire codec when useWire is set
// and v implements it, gob otherwise. The second result reports whether the
// body is a wire frame. The fabrics always pass useWire.
func EncodeBody(v any, useWire bool) ([]byte, bool, error) {
	if useWire {
		if m, ok := v.(wire.Marshaler); ok {
			return wire.Marshal(m), true, nil
		}
	}
	data, err := Encode(v)
	return data, false, err
}

// Decode decodes a fabric body into v (a pointer), dispatching on the body's
// first bytes: wire frames go through the value's wire codec, everything
// else through gob. Failures wrap ErrDecode.
func Decode(data []byte, v any) error {
	if wire.IsFrame(data) {
		u, ok := v.(wire.Unmarshaler)
		if !ok {
			return fmt.Errorf("%w wire frame for %T, which has no wire codec", ErrDecode, v)
		}
		if err := wire.Unmarshal(data, u); err != nil {
			return fmt.Errorf("%w %v", ErrDecode, err)
		}
		return nil
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
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

// Register installs a typed handler for method on mux. The response is
// encoded by its own type, like every other body: a wire frame when Resp has
// a wire codec, gob otherwise.
func Register[Req, Resp any](mux *Mux, method string, fn func(ctx context.Context, req Req) (Resp, error)) {
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
