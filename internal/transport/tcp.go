package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/gob"
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

// The TCP fabric speaks two envelope protocols on one port and negotiates
// per connection:
//
//   - wire: the client opens with the 4-byte preface [0x00, Magic, envTag,
//     wire.Version]; the server answers with the 3-byte ack [Magic, envTag,
//     wire.Version] and both sides switch to request-ID multiplexed
//     envelopes — uvarint payload length, then request ID · method · trace ·
//     body · flags · budget as wire fields (responses: request ID · error
//     text · body), the body copied in verbatim (whatever codec EncodeBody
//     picked), so nothing is encoded twice. Many calls share one connection:
//     the server handles a connection's requests concurrently and answers in
//     completion order, and the client's one reader goroutine per connection
//     hands each response to the call its ID names.
//   - gob: anything else is the legacy protocol — gob tcpRequest/tcpResponse
//     envelopes around an already-encoded body (the historical double-gob),
//     one round trip at a time.
//
// envTag (0x80|envelopeVersion) is the envelope version. It sits where
// binaries built before the multiplexed envelope put wire.Version, which is
// always below 0x80, and both generations compare that byte exactly: an old
// server hangs up on the new preface (so does an old gob decoder — a gob
// message length can never be 0x00), and a new server hangs up on the old
// 3-byte preface [0x00, Magic, wire.Version]. Either way the client reads
// EOF at the handshake, remembers the destination as legacy — exactly like
// the ErrNoMethod legacy-batch fallback — and redials in gob, instead of
// misparsing envelopes mid-stream. Old gob clients never send a preface, and
// the server routes them to the gob loop off the first byte, so mixed fleets
// interoperate in both directions.

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

// gob envelope types of the legacy protocol. Trace carries the caller's span
// context so a trace stitches across processes; BudgetMillis carries the
// remaining time to the caller's deadline (0 = none) so an overloaded server
// can drop a request whose caller already gave up — it is relative, not an
// absolute timestamp, so clock skew between peers cannot corrupt it. gob
// tolerates fields being absent (older peers) or unknown (newer peers), so
// the envelope stays wire-compatible in both directions.
type tcpRequest struct {
	Method       string
	Body         []byte
	Trace        trace.SpanContext
	BudgetMillis int64
}

type tcpResponse struct {
	Body []byte
	Err  string
}

// TCPServer serves a Handler over real TCP connections.
type TCPServer struct {
	ln      net.Listener
	handler Handler
	gobOnly bool

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
	gobConns  *metrics.Counter
	handleNs  *metrics.Histogram
	openConns *metrics.Gauge
}

// Instrument records served requests (count, errors, payload bytes, handler
// latency), the per-protocol connection counters and the open-connection
// gauge in reg. Safe to call while serving; a nil reg is a no-op.
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
		gobConns:  reg.Counter("transport.serve_gob_conns"),
		handleNs:  reg.Histogram("transport.serve_ns", nil),
		openConns: reg.Gauge("transport.serve_open_conns"),
	})
}

// ServeTCP starts a server on addr ("127.0.0.1:0" picks a free port).
func ServeTCP(addr string, h Handler) (*TCPServer, error) {
	return serveTCP(addr, h, false)
}

// ServeTCPLegacy starts a server that behaves like a binary predating the
// wire codec: the negotiation preface is answered by closing the connection
// (as an old gob decoder would) and only the gob envelope is spoken.
// Interop tests pair it with Mux.SetGobOnly to model a fully legacy peer.
func ServeTCPLegacy(addr string, h Handler) (*TCPServer, error) {
	return serveTCP(addr, h, true)
}

func serveTCP(addr string, h Handler, gobOnly bool) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &TCPServer{ln: ln, handler: h, gobOnly: gobOnly, conns: make(map[net.Conn]struct{})}
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

	// The first byte routes the connection: 0x00 can only be the wire
	// preface (a gob message length is never zero), anything else is a gob
	// client mid-first-message.
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	peer := ""
	if ra := conn.RemoteAddr(); ra != nil {
		peer = ra.String()
	}
	if first[0] == 0x00 {
		if s.gobOnly {
			return // what an old binary's gob decoder does: error out, hang up
		}
		// Three bytes decide: a preface from a client predating the
		// multiplexed envelope ends there, with wire.Version where envTag
		// belongs, and is refused by hanging up before any ack.
		var preface [4]byte
		if _, err := io.ReadFull(br, preface[:3]); err != nil {
			return
		}
		if !wire.IsFrame(preface[:3]) || preface[2] != envTag {
			return
		}
		if _, err := io.ReadFull(br, preface[3:]); err != nil || preface[3] != wire.Version {
			return
		}
		if _, err := conn.Write([]byte{wire.Magic, envTag, wire.Version}); err != nil {
			return
		}
		if sm := s.m.Load(); sm != nil {
			sm.wireConns.Inc()
		}
		s.serveMux(conn, br, peer)
		return
	}
	if sm := s.m.Load(); sm != nil {
		sm.gobConns.Inc()
	}
	s.serveGob(conn, br, peer)
}

// serveGob runs the legacy gob envelope loop.
func (s *TCPServer) serveGob(conn net.Conn, br *bufio.Reader, peer string) {
	dec := gob.NewDecoder(br)
	enc := gob.NewEncoder(conn)
	for {
		var req tcpRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		body, err := s.handle(req.Trace, peer, req.BudgetMillis, req.Method, req.Body)
		resp := tcpResponse{Body: body}
		if err != nil {
			resp.Err = err.Error()
		}
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
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

// serve handles one request and writes its response.
func (m *muxServe) serve(req muxRequest) {
	rbody, herr := m.s.handle(req.sc, m.peer, req.budgetMillis, req.method, req.body)
	e := wire.GetEncoder()
	e.Uvarint(req.id)
	if herr != nil {
		e.String(herr.Error())
	} else {
		e.String("")
	}
	e.Bytes(rbody)
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
// handler context carries the peer's address and, when the caller sent a
// deadline budget, a matching local deadline — so the overload layer can drop
// a request whose caller already gave up without invoking the handler.
func (s *TCPServer) handle(sc trace.SpanContext, peer string, budgetMillis int64, method string, body []byte) ([]byte, error) {
	sm := s.m.Load()
	start := time.Time{}
	if sm != nil {
		sm.requests.Inc()
		sm.bytesIn.Add(uint64(len(body)))
		start = time.Now() //lint:allow clockcheck (real RPC latency metric)
	}
	ctx := WithPeer(trace.NewContext(context.Background(), sc), peer)
	if budgetMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(budgetMillis)*time.Millisecond)
		defer cancel()
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
// destination and remembering which destinations fell back to gob. Calls to
// one destination share its connection: on the wire protocol any number are
// in flight at once.
type TCPCaller struct {
	DialTimeout time.Duration

	mu     sync.Mutex
	conns  map[string]clientConn
	noWire bool
	legacy map[string]bool // peers that rejected the preface or a wire body

	m atomic.Pointer[fabricMetrics]
}

// Instrument records every outbound call (count, errors, timeouts, payload
// bytes, codec mix, latency) in reg, sharing metric names with the in-proc
// fabric. Safe to call while calls are in flight; a nil reg is a no-op.
func (c *TCPCaller) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	c.m.Store(newFabricMetrics(reg))
}

// clientConn is one pooled connection, multiplexed (wire) or serial (gob).
type clientConn interface {
	// roundTrip performs one call with an already-encoded body. unsent
	// reports that the request provably never left this process — the
	// connection was dead before the write or the write itself failed — so
	// re-sending it on a fresh connection cannot apply it twice.
	roundTrip(ctx context.Context, fm *fabricMetrics, to, method string, body []byte, resp any) (err error, unsent bool)
	// alive reports whether the connection can take another call; the pool
	// replaces dead ones on the next call.
	alive() bool
	close()
}

// NewTCPCaller returns a caller with a 2s dial timeout.
func NewTCPCaller() *TCPCaller {
	return &TCPCaller{
		DialTimeout: 2 * time.Second,
		conns:       make(map[string]clientConn),
		legacy:      make(map[string]bool),
	}
}

// DisableWire forces every connection and body onto gob, behaving like a
// client predating the wire codec (-wire=false on the cmds).
func (c *TCPCaller) DisableWire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noWire = true
}

// peerWire reports whether bodies to addr should use the wire codec.
func (c *TCPCaller) peerWire(addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.noWire && !c.legacy[addr]
}

// markLegacy remembers that addr cannot decode wire bodies.
func (c *TCPCaller) markLegacy(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.legacy == nil { // zero-value TCPCaller
		c.legacy = make(map[string]bool)
	}
	c.legacy[addr] = true
}

// Call implements Caller. to is a host:port address.
func (c *TCPCaller) Call(ctx context.Context, to, method string, req, resp any) (err error) {
	if fm := c.m.Load(); fm != nil {
		fm.calls.Inc()
		start := time.Now() //lint:allow clockcheck (real RPC latency metric)
		defer func() { fm.finishCall(start, err) }()
	}
	err, usedWire := c.callOnce(ctx, to, method, req, resp)
	if err != nil && usedWire {
		var re *RemoteError
		if errors.As(err, &re) && errors.Is(err, ErrDecode) {
			// The connection negotiated wire envelopes but the remote could
			// not decode this wire body (a peer of an intermediate version):
			// remember it and re-issue the call in gob. The request never
			// reached its handler, so the retry cannot double-apply.
			c.markLegacy(to)
			if fm := c.m.Load(); fm != nil {
				fm.fallbacks.Inc()
			}
			err, _ = c.callOnce(ctx, to, method, req, resp)
		}
	}
	return err
}

// callOnce performs one call, reporting whether the body went out as a wire
// frame. A request that provably never left is re-sent once on a fresh
// connection; one that may have reached the server never is.
func (c *TCPCaller) callOnce(ctx context.Context, to, method string, req, resp any) (error, bool) {
	for redialed := false; ; redialed = true {
		cc, err := c.conn(ctx, to)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return fmt.Errorf("transport: dial %s: %w", to, ctxErr), false
			}
			return fmt.Errorf("%w: %s: %v", ErrUnreachable, to, err), false
		}
		_, wireConn := cc.(*muxConn)
		body, usedWire, err := EncodeBody(req, wireConn && c.peerWire(to))
		if err != nil {
			return err, false
		}
		fm := c.m.Load()
		err, unsent := cc.roundTrip(ctx, fm, to, method, body, resp)
		if unsent && !redialed {
			continue
		}
		fm.countBody(usedWire)
		return err, usedWire
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

// decodeResponse turns a response's error text and body into the call's
// result.
func decodeResponse(fm *fabricMetrics, method, errText string, rbody []byte, resp any) error {
	if fm != nil {
		fm.bytesIn.Add(uint64(len(rbody)))
	}
	if errText != "" {
		return NewRemoteError(method, errText)
	}
	if resp == nil {
		return nil
	}
	return Decode(rbody, resp)
}

// Close closes all pooled connections, failing the calls still waiting on
// them, and returns once their reader goroutines have exited.
func (c *TCPCaller) Close() {
	c.mu.Lock()
	conns := c.conns
	c.conns = make(map[string]clientConn)
	c.mu.Unlock()
	for _, cc := range conns {
		cc.close()
	}
}

// conn returns the pooled connection to `to`, dialing a new one when there
// is none or the pooled one died.
func (c *TCPCaller) conn(ctx context.Context, to string) (clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc, ok := c.conns[to]; ok {
		if cc.alive() {
			return cc, nil
		}
		cc.close()
		delete(c.conns, to)
	}
	if c.conns == nil { // zero-value TCPCaller
		c.conns = make(map[string]clientConn)
	}
	// DialContext caps the dial at DialTimeout but also honors the caller's
	// ctx, so a tight deadline or cancellation cuts the dial short instead of
	// always waiting out the full timeout.
	d := net.Dialer{Timeout: c.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		return nil, err
	}
	if !c.noWire && !c.legacy[to] {
		if mc, ok := c.handshake(ctx, conn); ok {
			c.conns[to] = mc
			return mc, nil
		}
		// The preface was rejected, timed out or mis-acked: the server
		// predates this envelope (or is unreadably slow — treating it as
		// legacy stays correct either way). Remember and redial in gob; the
		// handshake connection is closed because the preface bytes already
		// sent would corrupt a gob stream.
		if c.legacy == nil { // zero-value TCPCaller
			c.legacy = make(map[string]bool)
		}
		c.legacy[to] = true
		if fm := c.m.Load(); fm != nil {
			fm.fallbacks.Inc()
		}
		conn, err = d.DialContext(ctx, "tcp", to)
		if err != nil {
			return nil, err
		}
	}
	gc := &gobConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
	c.conns[to] = gc
	return gc, nil
}

// handshake sends the wire preface and waits briefly for the ack. On success
// it starts the connection's reader; on any failure the connection is
// closed and (nil, false) returned.
func (c *TCPCaller) handshake(ctx context.Context, conn net.Conn) (*muxConn, bool) {
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
		return nil, false
	}
	br := bufio.NewReader(conn)
	var ack [3]byte
	if _, err := io.ReadFull(br, ack[:]); err != nil || ack != [3]byte{wire.Magic, envTag, wire.Version} {
		conn.Close()
		return nil, false
	}
	_ = conn.SetDeadline(time.Time{})
	mc := &muxConn{
		conn:       conn,
		w:          envelopeWriter{bw: bufio.NewWriter(conn)},
		pending:    make(map[uint64]chan muxResult),
		readerDone: make(chan struct{}),
	}
	go mc.readLoop(br)
	return mc, true
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

func (mc *muxConn) roundTrip(ctx context.Context, fm *fabricMetrics, to, method string, body []byte, resp any) (error, bool) {
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
	return decodeResponse(fm, method, r.errText, r.body, resp), false
}

// gobConn is one legacy gob connection: one round trip at a time under its
// mutex, with cancellation observed by a per-call watcher that forces a
// deadline in the past. Any connection-level failure retires it.
type gobConn struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	dead atomic.Bool
}

func (gc *gobConn) alive() bool { return !gc.dead.Load() }

func (gc *gobConn) close() {
	gc.dead.Store(true)
	gc.conn.Close()
}

func (gc *gobConn) roundTrip(ctx context.Context, fm *fabricMetrics, to, method string, body []byte, resp any) (error, bool) {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	if deadline, ok := ctx.Deadline(); ok {
		_ = gc.conn.SetDeadline(deadline)
	} else {
		_ = gc.conn.SetDeadline(time.Time{})
	}
	// A deadline alone does not observe cancellation: watch ctx and abort the
	// in-flight round trip by forcing a deadline in the past.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			_ = gc.conn.SetDeadline(time.Unix(1, 0))
		case <-watchDone:
		}
	}()
	sc, budgetMillis := envelopeFields(ctx)
	callErr := gc.exchange(fm, method, sc, budgetMillis, body, resp)
	close(watchDone)
	if callErr != nil {
		ctxErr := ctx.Err()
		if ctxErr == nil {
			// The conn deadline equals the ctx deadline and its poller can
			// fire a moment before the ctx timer: map that to expiry too.
			if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) { //lint:allow clockcheck (compares against the conn's real deadline)
				ctxErr = context.DeadlineExceeded
			}
		}
		if ctxErr != nil {
			// Surface cancellation/expiry as the context error, not the I/O
			// error the forced deadline produced.
			callErr = fmt.Errorf("transport: call %s %s: %w", to, method, ctxErr)
		}
		if _, isRemote := callErr.(*RemoteError); !isRemote {
			gc.close()
		}
	}
	return callErr, false
}

// exchange writes one legacy gob envelope and reads its response.
func (gc *gobConn) exchange(fm *fabricMetrics, method string, sc trace.SpanContext, budgetMillis int64, body []byte, resp any) error {
	if err := gc.enc.Encode(&tcpRequest{Method: method, Body: body, Trace: sc, BudgetMillis: budgetMillis}); err != nil {
		return err
	}
	if fm != nil {
		fm.bytesOut.Add(uint64(len(body)))
	}
	var out tcpResponse
	if err := gc.dec.Decode(&out); err != nil {
		return err
	}
	return decodeResponse(fm, method, out.Err, out.Body, resp)
}
