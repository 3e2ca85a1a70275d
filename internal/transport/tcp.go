package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The TCP fabric speaks one protocol. The client opens with the 4-byte
// preface [0x00, Magic, envTag, wire.Version]; the server answers with its
// own 3-byte ack [Magic, envTag, wire.Version], and when the two agree both
// sides switch to request-ID multiplexed envelopes — uvarint payload length,
// then request ID · method · trace · body · flags · budget as wire fields
// (responses: request ID · error text · body), the body copied in verbatim
// (already a wire frame), so nothing is encoded twice. Many calls
// share one connection: the server handles a connection's requests
// concurrently and answers in completion order, and the client's one reader
// goroutine per connection hands each response to the call its ID names.
//
// envTag (0x80|envelopeVersion) is the envelope version. A well-formed
// preface is one whose first three bytes are [0x00, Magic, tag] with the
// tag's high bit set; the server acks every well-formed preface, then hangs up
// if the envelope or wire version differs from its own, so the client reads
// the mismatch in the ack and fails with ErrIncompatible instead of
// misparsing envelopes mid-stream. Anything else — a gob stream, or a preface
// with wire.Version where envTag belongs — is hung up on before any ack.

const (
	// maxEnvelope caps one wire envelope (64 MiB): a corrupt or hostile
	// length prefix must not allocate unbounded memory.
	maxEnvelope = 1 << 26
	// envelopeVersion is the multiplexed envelope's protocol version, carried
	// in the handshake as envTag.
	envelopeVersion = 1
	envTag          = 0x80 | envelopeVersion
	// maxInFlight bounds the requests one server connection handles at once;
	// beyond it the server stops reading, which backpressures the client
	// through TCP flow control.
	maxInFlight = 64
)

// TCPServer serves a Handler over real TCP connections.
type TCPServer struct {
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	m atomic.Pointer[serverMetrics]
}

// serverMetrics is the serve-side RPC accounting.
type serverMetrics struct {
	requests  *metrics.Counter
	errors    *metrics.Counter
	bytesIn   *metrics.Counter
	bytesOut  *metrics.Counter
	wireConns *metrics.Counter
	handleNs  *metrics.Histogram
	openConns *metrics.Gauge
}

// Instrument records served requests (count, errors, payload bytes, handler
// latency), the accepted-connection counter and the open-connection gauge in
// reg. Safe to call while serving; a nil reg is a no-op.
func (s *TCPServer) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.m.Store(&serverMetrics{
		requests:  reg.Counter("transport.serve_requests"),
		errors:    reg.Counter("transport.serve_errors"),
		bytesIn:   reg.Counter("transport.serve_bytes_received"),
		bytesOut:  reg.Counter("transport.serve_bytes_sent"),
		wireConns: reg.Counter("transport.serve_wire_conns"),
		handleNs:  reg.Histogram("transport.serve_ns", nil),
		openConns: reg.Gauge("transport.serve_open_conns"),
	})
}

// ServeTCP starts a server on addr ("127.0.0.1:0" picks a free port).
func ServeTCP(addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &TCPServer{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes open connections and waits for handlers.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	if sm := s.m.Load(); sm != nil {
		sm.openConns.Add(1)
	}
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if sm := s.m.Load(); sm != nil {
			sm.openConns.Add(-1)
		}
	}()

	br := bufio.NewReader(conn)
	if !acceptPreface(conn, br) {
		return
	}
	if sm := s.m.Load(); sm != nil {
		sm.wireConns.Inc()
	}
	peer := ""
	if ra := conn.RemoteAddr(); ra != nil {
		peer = ra.String()
	}
	s.serveMux(conn, br, peer)
}

// handshakeAck is the server's answer to every well-formed preface.
var handshakeAck = [3]byte{wire.Magic, envTag, wire.Version}

// acceptPreface reads the client's preface and acks it when well-formed. It
// reports whether the client speaks this build's envelope and wire version.
func acceptPreface(conn net.Conn, br *bufio.Reader) bool {
	var preface [4]byte
	// Three bytes decide whether this is a client of the protocol at all: a
	// gob stream never starts with 0x00, and a preface from before the
	// multiplexed envelope ends there, with wire.Version (below 0x80) where
	// envTag belongs. Either way the server hangs up without an ack.
	if _, err := io.ReadFull(br, preface[:3]); err != nil || !wire.IsFrame(preface[:3]) || preface[2]&0x80 == 0 {
		return false
	}
	if _, err := io.ReadFull(br, preface[3:]); err != nil {
		return false
	}
	if _, err := conn.Write(handshakeAck[:]); err != nil {
		return false
	}
	return preface[2] == envTag && preface[3] == wire.Version
}

// muxServe is the server side of one multiplexed connection, served by a
// leader/follower pool of workers: exactly one worker reads at a time.
// Having read a request, the reader passes the reading role to an idle
// worker (starting one if none is idle, up to maxInFlight) and handles the
// request itself, so a lone request runs on the goroutine that read it with
// no handoff, requests behind it are read and handled concurrently, and
// workers — with their grown stacks — are reused across requests. With every
// worker busy, reading waits for one to free up. Responses go out as their
// handlers finish, in completion order.
type muxServe struct {
	s       *TCPServer
	br      *bufio.Reader
	w       envelopeWriter
	peer    string
	turn    chan struct{} // hands the reading role to an idle worker
	done    chan struct{} // closed when reading fails; idle workers exit
	workers int           // started so far; touched only by the reader
	wg      sync.WaitGroup
}

// muxRequest is one decoded request envelope.
type muxRequest struct {
	id           uint64
	method       string
	sc           trace.SpanContext
	body         []byte
	budgetMillis int64
}

// serveMux runs the multiplexed envelope protocol until the connection
// fails and every request read from it has been answered.
func (s *TCPServer) serveMux(conn net.Conn, br *bufio.Reader, peer string) {
	m := &muxServe{
		s: s, br: br, w: envelopeWriter{bw: bufio.NewWriter(conn)}, peer: peer,
		turn: make(chan struct{}), done: make(chan struct{}), workers: 1,
	}
	m.wg.Add(1)
	m.work()
	m.wg.Wait()
}

// work is one worker: read a request, pass the reading role on, handle the
// request, then wait to be handed the reading role again.
func (m *muxServe) work() {
	defer m.wg.Done()
	for {
		req, err := m.read()
		if err != nil {
			close(m.done)
			return
		}
		m.passTurn()
		m.serve(req)
		select {
		case <-m.turn:
		case <-m.done:
			return
		}
	}
}

// passTurn hands the reading role to an idle worker, or to a new one while
// fewer than maxInFlight exist, or else waits until a worker is idle.
func (m *muxServe) passTurn() {
	select {
	case m.turn <- struct{}{}:
		return
	default:
	}
	if m.workers < maxInFlight {
		m.workers++
		m.wg.Add(1)
		go m.work()
		return
	}
	m.turn <- struct{}{}
}

// read reads and decodes one request envelope. Layout: id · method · trace ·
// body · flags · budget. The flags byte carries the trace's sampling
// decision and the budget varint the remaining milliseconds to the caller's
// deadline (0: none).
func (m *muxServe) read() (muxRequest, error) {
	payload, err := readEnvelope(m.br)
	if err != nil {
		return muxRequest{}, err
	}
	d := wire.NewDecoder(payload)
	req := muxRequest{id: d.Uvarint(), method: d.String()}
	_ = req.sc.UnmarshalWire(d)
	req.body = d.Bytes()
	req.sc.Flags = d.Byte()
	req.budgetMillis = d.Varint()
	return req, d.Err()
}

// serve handles one request and writes its response. The response body is
// copied into the envelope, so a body Register left with the request's
// context is recycled right after.
func (m *muxServe) serve(req muxRequest) {
	ctx := serverCall(req.sc, m.peer, time.Duration(req.budgetMillis)*time.Millisecond)
	rbody, herr := m.s.handle(ctx, req.method, req.body)
	e := wire.GetEncoder()
	e.Uvarint(req.id)
	if herr != nil {
		e.String(herr.Error())
	} else {
		e.String("")
	}
	e.Bytes(rbody)
	ctx.served(rbody)
	// A failed write means the connection is gone; the reader sees that too
	// and winds the connection down.
	_ = m.w.write(e.Data())
	wire.PutEncoder(e)
}

// envelopeWriter writes length-prefixed envelopes onto one connection under
// a lock, so concurrent calls (client) or handlers (server) never interleave
// bytes. Each envelope is flushed before the lock is released.
type envelopeWriter struct {
	mu sync.Mutex
	bw *bufio.Writer
}

func (w *envelopeWriter) write(payload []byte) error {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err := w.bw.Write(lenBuf[:n])
	if err == nil {
		_, err = w.bw.Write(payload)
	}
	if err == nil {
		err = w.bw.Flush()
	}
	return err
}

// readEnvelope reads one length-prefixed envelope into a fresh buffer.
func readEnvelope(br *bufio.Reader) ([]byte, error) {
	plen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if plen > maxEnvelope {
		return nil, fmt.Errorf("transport: envelope of %d bytes exceeds cap", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// handle dispatches one request to the handler with metrics accounting. The
// handler context carries the peer's address, the caller's span context and,
// when the caller sent a deadline budget, a matching local deadline — so the
// overload layer can drop a request whose caller already gave up without
// invoking the handler. The request body is the envelope's fresh copy,
// handed over for good.
func (s *TCPServer) handle(ctx *CallDeadline, method string, body []byte) ([]byte, error) {
	sm := s.m.Load()
	start := time.Time{}
	if sm != nil {
		sm.requests.Inc()
		sm.bytesIn.Add(uint64(len(body)))
		start = time.Now() //lint:allow clockcheck (real RPC latency metric)
	}
	if _, ok := ctx.Deadline(); ok {
		defer ctx.Cancel()
	}
	out, err := s.handler.Handle(ctx, method, body)
	if sm != nil {
		sm.handleNs.Since(start)
		if err != nil {
			sm.errors.Inc()
		}
		sm.bytesOut.Add(uint64(len(out)))
	}
	return out, err
}

// TCPCaller issues calls over TCP, keeping one pooled connection per
// destination. Calls to one destination share its connection, any number in
// flight at once.
type TCPCaller struct {
	DialTimeout time.Duration

	mu    sync.Mutex
	conns map[string]*muxConn

	m atomic.Pointer[fabricMetrics]
}

// Instrument records every outbound call (count, errors, timeouts, payload
// bytes, latency) in reg, sharing metric names with the in-proc fabric. Safe
// to call while calls are in flight; a nil reg is a no-op.
func (c *TCPCaller) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	c.m.Store(newFabricMetrics(reg))
}

// NewTCPCaller returns a caller with a 2s dial timeout.
func NewTCPCaller() *TCPCaller {
	return &TCPCaller{
		DialTimeout: 2 * time.Second,
		conns:       make(map[string]*muxConn),
	}
}

// Call implements Caller. to is a host:port address. A request that provably
// never left is re-sent once on a fresh connection; one that may have reached
// the server never is.
func (c *TCPCaller) Call(ctx context.Context, to, method string, req, resp any) (err error) {
	if fm := c.m.Load(); fm != nil {
		fm.calls.Inc()
		start := time.Now() //lint:allow clockcheck (real RPC latency metric)
		defer func() { fm.finishCall(start, err) }()
	}
	body, _, err := EncodeBody(req, true)
	if err != nil {
		return err
	}
	for redialed := false; ; redialed = true {
		mc, err := c.conn(ctx, to)
		if err != nil {
			return err
		}
		err, unsent := mc.roundTrip(ctx, c.m.Load(), to, method, body, resp)
		if unsent && !redialed {
			continue
		}
		return err
	}
}

// envelopeFields returns what every request envelope carries besides method
// and body: the caller's span context and its deadline as a relative budget
// (remaining ms, rounded up so a tight-but-live deadline never truncates to
// "none"), which lets the server expire queued requests without trusting
// clock alignment.
func envelopeFields(ctx context.Context) (trace.SpanContext, int64) {
	sc, _ := trace.FromContext(ctx)
	var budgetMillis int64
	if d, ok := ctx.Deadline(); ok {
		if remaining := time.Until(d); remaining > 0 { //lint:allow clockcheck (real deadline budget for the wire)
			budgetMillis = int64((remaining + time.Millisecond - 1) / time.Millisecond)
		}
	}
	return sc, budgetMillis
}

// Close closes all pooled connections, failing the calls still waiting on
// them, and returns once their reader goroutines have exited.
func (c *TCPCaller) Close() {
	c.mu.Lock()
	conns := c.conns
	c.conns = make(map[string]*muxConn)
	c.mu.Unlock()
	for _, mc := range conns {
		mc.close()
	}
}

// conn returns the pooled connection to `to`, dialing a new one when there
// is none or the pooled one died. A connection whose handshake fails is never
// pooled.
func (c *TCPCaller) conn(ctx context.Context, to string) (*muxConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mc, ok := c.conns[to]; ok {
		if mc.alive() {
			return mc, nil
		}
		mc.close()
		delete(c.conns, to)
	}
	if c.conns == nil { // zero-value TCPCaller
		c.conns = make(map[string]*muxConn)
	}
	mc, err := c.dial(ctx, to)
	if err != nil {
		if errors.Is(err, ErrIncompatible) {
			return nil, err
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("transport: dial %s: %w", to, ctxErr)
		}
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, to, err)
	}
	c.conns[to] = mc
	return mc, nil
}

// dial connects to `to`, sends the preface and waits briefly for the ack. On
// success it starts the connection's reader; on any failure the connection is
// closed. An ack naming another envelope or wire version fails with
// ErrIncompatible.
func (c *TCPCaller) dial(ctx context.Context, to string) (*muxConn, error) {
	// DialContext caps the dial at DialTimeout but also honors the caller's
	// ctx, so a tight deadline or cancellation cuts the dial short instead of
	// always waiting out the full timeout.
	d := net.Dialer{Timeout: c.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		return nil, err
	}
	ackTimeout := c.DialTimeout
	if ackTimeout <= 0 {
		ackTimeout = 2 * time.Second
	}
	deadline := time.Now().Add(ackTimeout) //lint:allow clockcheck (real I/O deadline on the socket)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = conn.SetDeadline(deadline)
	if _, err := conn.Write([]byte{0x00, wire.Magic, envTag, wire.Version}); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	var ack [3]byte
	if _, err := io.ReadFull(br, ack[:]); err != nil {
		conn.Close()
		return nil, err
	}
	if ack != handshakeAck {
		conn.Close()
		return nil, fmt.Errorf("%w: %s acked % x, want % x", ErrIncompatible, to, ack, handshakeAck)
	}
	_ = conn.SetDeadline(time.Time{})
	mc := &muxConn{
		conn:       conn,
		w:          envelopeWriter{bw: bufio.NewWriter(conn)},
		pending:    make(map[uint64]chan muxResult),
		readerDone: make(chan struct{}),
	}
	go mc.readLoop(br)
	return mc, nil
}

// Connection-level failures of a multiplexed connection.
var (
	errCallerClosed = errors.New("transport: caller closed")
	// errSilent retires a connection on which a call's deadline passed with
	// no response of any call read since it was sent: the peer is presumed
	// gone without a FIN, and later calls should dial afresh rather than
	// queue behind it.
	errSilent = errors.New("transport: connection silent past a call deadline")
)

// muxConn is one multiplexed wire connection. A call registers a result
// channel under a fresh request ID, writes its envelope under the write lock
// and waits; the connection's single reader goroutine hands each response to
// the channel its ID names. Nothing per call touches the socket's deadlines
// or starts a goroutine.
type muxConn struct {
	conn       net.Conn
	w          envelopeWriter
	readerDone chan struct{}
	received   atomic.Uint64 // responses read, for the silence check

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan muxResult
	err     error // why the connection died; nil while alive
}

// muxResult is one response, or the connection failure that ended the wait.
type muxResult struct {
	errText string
	body    []byte
	err     error
}

func (mc *muxConn) alive() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.err == nil
}

func (mc *muxConn) close() {
	mc.fail(errCallerClosed)
	<-mc.readerDone
}

// fail marks the connection dead with err (the first failure wins), closes
// it and fails every call still waiting on it.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.err != nil {
		mc.mu.Unlock()
		return
	}
	mc.err = err
	pending := mc.pending
	mc.pending = nil
	mc.mu.Unlock()
	mc.conn.Close()
	for _, ch := range pending {
		ch <- muxResult{err: err}
	}
}

// abandon forgets a call that stopped waiting; its response, if one still
// arrives, is discarded by the reader.
func (mc *muxConn) abandon(id uint64) {
	mc.mu.Lock()
	delete(mc.pending, id)
	mc.mu.Unlock()
}

// readLoop delivers responses until the connection fails, then fails it for
// every waiting call.
func (mc *muxConn) readLoop(br *bufio.Reader) {
	defer close(mc.readerDone)
	for {
		payload, err := readEnvelope(br)
		if err != nil {
			mc.fail(err)
			return
		}
		d := wire.NewDecoder(payload)
		id := d.Uvarint()
		r := muxResult{errText: d.String(), body: d.Bytes()}
		if derr := d.Err(); derr != nil {
			// A response that cannot be attributed leaves the stream
			// unusable for every call on it.
			mc.fail(fmt.Errorf("%w %v", ErrDecode, derr))
			return
		}
		mc.received.Add(1)
		mc.mu.Lock()
		ch := mc.pending[id]
		delete(mc.pending, id)
		mc.mu.Unlock()
		if ch != nil {
			ch <- r // buffered: the reader never blocks on a caller
		}
	}
}

// roundTrip performs one call with an already-encoded body. unsent reports
// that the request provably never left this process — the connection was dead
// before the write or the write itself failed — so re-sending it on a fresh
// connection cannot apply it twice.
func (mc *muxConn) roundTrip(ctx context.Context, fm *fabricMetrics, to, method string, body []byte, resp any) (err error, unsent bool) {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("transport: call %s %s: %w", to, method, err), false
	}
	// A deadline is enforced by a timer rather than by ctx.Done() alone, so
	// a context that reports a deadline but no Done channel still expires.
	var expired <-chan time.Time
	if d, ok := ctx.Deadline(); ok {
		wait := time.Until(d) //lint:allow clockcheck (real deadline of a socket wait)
		if wait <= 0 {
			return fmt.Errorf("transport: call %s %s: %w", to, method, context.DeadlineExceeded), false
		}
		t := time.NewTimer(wait) //lint:allow clockcheck (real deadline of a socket wait)
		defer t.Stop()
		expired = t.C
	}
	ch := make(chan muxResult, 1)
	mc.mu.Lock()
	if err := mc.err; err != nil {
		mc.mu.Unlock()
		return fmt.Errorf("transport: call %s %s: %w", to, method, err), true
	}
	mc.nextID++
	id := mc.nextID
	mc.pending[id] = ch
	mc.mu.Unlock()

	// Any response read from here on, for any call, shows the peer alive.
	seen := mc.received.Load()
	sc, budgetMillis := envelopeFields(ctx)
	e := wire.GetEncoder()
	e.Uvarint(id)
	e.String(method)
	sc.MarshalWire(e)
	e.Bytes(body)
	e.Byte(sc.Flags)
	e.Varint(budgetMillis)
	werr := mc.w.write(e.Data())
	wire.PutEncoder(e)
	if werr != nil {
		mc.fail(werr)
		return fmt.Errorf("transport: call %s %s: %w", to, method, werr), true
	}
	if fm != nil {
		fm.bytesOut.Add(uint64(len(body)))
	}

	var r muxResult
	select {
	case r = <-ch:
	case <-ctx.Done():
		mc.abandon(id)
		return fmt.Errorf("transport: call %s %s: %w", to, method, ctx.Err()), false
	case <-expired:
		mc.abandon(id)
		if mc.received.Load() == seen {
			mc.fail(errSilent)
		}
		return fmt.Errorf("transport: call %s %s: %w", to, method, context.DeadlineExceeded), false
	}
	if r.err != nil {
		return fmt.Errorf("transport: call %s %s: %w", to, method, r.err), false
	}
	if fm != nil {
		fm.bytesIn.Add(uint64(len(r.body)))
	}
	if r.errText != "" {
		return NewRemoteError(method, r.errText), false
	}
	if resp == nil {
		return nil, false
	}
	return Decode(r.body, resp), false
}
