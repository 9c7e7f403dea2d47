package controlplane

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/dhlsys"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/units"
)

// ServerOptions hardens the API server against misbehaving peers and
// overload. All timeouts are wall-clock (the simulation clock is
// unaffected).
type ServerOptions struct {
	// RequestTimeout bounds how long one admitted request may wait for
	// the simulation (which serialises all clients) plus execute; a
	// request that cannot acquire the simulation in time is answered
	// with CodeServerBusy instead of queueing unboundedly. 0 disables.
	RequestTimeout time.Duration
	// DrainTimeout bounds Close's graceful wait for in-flight
	// connections; connections still open when it expires are forcibly
	// closed. 0 waits forever.
	DrainTimeout time.Duration
	// MaxConns caps concurrently served connections; further accepts
	// are answered with a CodeServerBusy response and closed. 0
	// disables the cap.
	MaxConns int
	// Admission configures the overload controller (bounded queue,
	// token bucket, priority classes, brownout — see internal/admit).
	Admission admit.Options
	// Clock supplies wall time for admission control, retry-after
	// hints, and snapshot aging; nil means time.Now. Injected so the
	// overload machinery is testable on a deterministic clock.
	Clock func() time.Time
}

// DefaultServerOptions is the hardened default: 10 s request budget, 5 s
// shutdown drain, and admission control at admit.New's defaults (one
// executor slot, a DefaultMaxQueue-deep bounded queue).
func DefaultServerOptions() ServerOptions {
	return ServerOptions{
		RequestTimeout: 10 * time.Second,
		DrainTimeout:   5 * time.Second,
	}
}

const (
	// readTimeout bounds how long a connection may take to deliver one
	// complete request frame (including sitting idle between requests)
	// before it is dropped.
	readTimeout = 30 * time.Second
	// maxRequestBytes caps one request frame; a longer line is answered
	// CodeBadRequest and the connection dropped, so a peer streaming an
	// endless line cannot balloon server memory.
	maxRequestBytes = 1 << 20
	// spanWindow bounds the span log of a served system to its last
	// spanWindow spans and instants each (about 1.5 MB of spans). A server
	// runs for its deployment's life, so a log that kept every record
	// would grow with every request; metrics stay exact.
	spanWindow = 1 << 16
)

// Server serves the §III-D API over TCP for one DHL deployment. The
// underlying simulation is single-threaded; a capacity-1 semaphore
// serialises client operations (the DHL scheduler itself serialises
// physical resources). Overload protection happens before the semaphore:
// the admission controller bounds the waiting room and sheds the excess
// with retry-after hints, and status/metrics reads are served from a
// cached snapshot whenever the simulation is busy, so observability
// never queues behind the workload.
type Server struct {
	sys *dhlsys.System
	opt ServerOptions
	adm *admit.Controller
	// telemetry records whether sys carries a telemetry set, so the
	// snapshot cache can tell without touching sys.
	telemetry bool

	sem chan struct{} // capacity 1: holds the simulation

	// readTimeout and maxRequestBytes hold the constants of the same
	// names; the package's tests shorten them.
	readTimeout     time.Duration
	maxRequestBytes int

	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}

	connMu sync.Mutex
	// conns tracks live connections so Close can sever stragglers.
	//dhllint:guardedby connMu
	conns map[net.Conn]struct{}
	// severed counts connections forcibly closed by Close's drain
	// deadline.
	//dhllint:guardedby connMu
	severed int

	// ops holds one completion record per fleet cart, plus a last one for
	// IDs outside the fleet. Only the holder of the simulation semaphore
	// touches them.
	ops []opRecord

	cacheMu sync.Mutex
	// The snapshot cache: refreshed in place after every
	// simulation-holding request, served to status/metrics reads while
	// the simulation is saturated (graceful degradation instead of
	// queueing).
	//dhllint:guardedby cacheMu
	cacheStats StatsJSON
	//dhllint:guardedby cacheMu
	cacheMetrics telemetry.Snapshot
	//dhllint:guardedby cacheMu
	cacheSimTime float64
	//dhllint:guardedby cacheMu
	cacheAt time.Time
	//dhllint:guardedby cacheMu
	cacheOK bool
}

// NewServerWithOptions wraps a system with explicit hardening options
// (DefaultServerOptions for the defaults). The system must not be driven
// elsewhere while the server owns it. A system with a span log has it
// windowed to the last spanWindow records, with the evicted count exported
// as dhl_telemetry_dropped_records_total.
func NewServerWithOptions(sys *dhlsys.System, opt ServerOptions) (*Server, error) {
	if sys == nil {
		return nil, errors.New("controlplane: nil system")
	}
	if opt.RequestTimeout < 0 || opt.DrainTimeout < 0 {
		return nil, errors.New("controlplane: timeouts must be non-negative")
	}
	if opt.MaxConns < 0 {
		return nil, errors.New("controlplane: limits must be non-negative")
	}
	if !(opt.Admission.Rate >= 0) { // NaN fails too, rather than turning rate limiting off
		return nil, errors.New("controlplane: admission rate must be non-negative")
	}
	s := &Server{
		sys:             sys,
		opt:             opt,
		telemetry:       sys.Telemetry() != nil,
		sem:             make(chan struct{}, 1),
		closed:          make(chan struct{}),
		conns:           make(map[net.Conn]struct{}),
		adm:             admit.New(opt.Admission),
		readTimeout:     readTimeout,
		maxRequestBytes: maxRequestBytes,
	}
	if spans := sys.Telemetry().SpansOf(); spans != nil {
		spans.SetWindow(spanWindow)
		sys.Telemetry().MetricsOf().CounterFunc("dhl_telemetry_dropped_records_total",
			func() float64 { return float64(spans.Dropped()) })
	}
	s.ops = make([]opRecord, sys.NumCarts()+1)
	for i := range s.ops {
		r := &s.ops[i]
		r.done = func(err error) { r.fired, r.err = true, err }
		r.xferDone = func(_ units.Seconds, err error) { r.fired, r.err = true, err }
	}
	return s, nil
}

// opRecord receives the outcome of a cart's latest op. Its callbacks are
// bound once, in NewServerWithOptions, so Execute builds no closures.
// Each cart has its own record, so an op queued in the simulation that
// completes while a later request runs cannot change that request's
// reply.
type opRecord struct {
	fired    bool
	err      error
	done     func(error)
	xferDone func(units.Seconds, error)
}

// Admission exposes the admission controller's ledger.
func (s *Server) Admission() admit.Stats { return s.adm.Snapshot() }

// Severed reports how many connections Close had to sever after the
// drain deadline expired.
func (s *Server) Severed() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return s.severed
}

func (s *Server) now() time.Time {
	if s.opt.Clock != nil {
		return s.opt.Clock()
	}
	return time.Now()
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") and returns the
// bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("controlplane: listen: %w", err)
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve starts accepting connections from an already-bound listener and
// returns immediately; Close stops it. Exposed so tests and embedders
// can inject listeners (fault injection, in-memory transports).
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	//dhllint:allow goroutine,goescape -- network accept loop, not model code; the conns map it reaches is lockcheck-verified under connMu
	go s.acceptLoop()
}

// acceptBackoffMax caps the retry backoff for transient Accept errors.
const acceptBackoffMax = time.Second

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient failures (ECONNABORTED, EMFILE, accept
			// timeouts) must not kill the listener forever: back off
			// with a capped exponential delay and try again. Only a
			// permanent listener error exits the loop.
			var te interface{ Temporary() bool }
			if !errors.As(err, &te) || !te.Temporary() {
				return
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			t := time.NewTimer(backoff)
			select {
			case <-s.closed:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		backoff = 0
		switch s.track(conn) {
		case trackRefused:
			// Over the connection cap: answer structurally so a
			// well-behaved client backs off instead of redialling hot.
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			writeResponse(conn, nil, Response{
				OK:          false,
				Error:       fmt.Sprintf("controlplane: connection limit (%d) reached", s.opt.MaxConns),
				Code:        CodeServerBusy,
				RetryAfterS: 1,
			})
			conn.Close()
			continue
		case trackClosing:
			conn.Close() // shutting down; refuse new work
			continue
		}
		s.wg.Add(1)
		//dhllint:allow goroutine,goescape -- per-connection I/O handler; untrack's conns-map delete is lockcheck-verified under connMu
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

type trackStatus int

const (
	trackOK trackStatus = iota
	trackRefused
	trackClosing
)

// track registers a live connection; it refuses once shutdown has begun
// or the connection cap is reached.
func (s *Server) track(conn net.Conn) trackStatus {
	select {
	case <-s.closed:
		return trackClosing
	default:
	}
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.opt.MaxConns > 0 && len(s.conns) >= s.opt.MaxConns {
		return trackRefused
	}
	s.conns[conn] = struct{}{}
	return trackOK
}

func (s *Server) untrack(conn net.Conn) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	delete(s.conns, conn)
}

// severConns force-closes every tracked connection so blocked handlers
// unblock. Callers must hold connMu; lockcheck verifies that through the
// call graph rather than a runtime assertion.
func (s *Server) severConns() {
	for c := range s.conns {
		c.Close()
		s.severed++
	}
}

// errFrameTooLarge marks a request frame over the server's frame cap.
var errFrameTooLarge = errors.New("controlplane: request frame too large")

// readFrame reads one newline-terminated frame, bounding its size when
// max > 0 so a peer streaming an endless line cannot balloon memory. A
// frame that fits in br's buffer is returned in place, valid only until
// the next read from br; a longer one is assembled in a new slice. A
// final frame without a trailing newline is accepted at EOF.
func readFrame(br *bufio.Reader, max int) ([]byte, error) {
	frame, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		frame = append([]byte(nil), frame...)
		for err == bufio.ErrBufferFull && (max <= 0 || len(frame) <= max) {
			var frag []byte
			frag, err = br.ReadSlice('\n')
			frame = append(frame, frag...)
		}
	}
	if max > 0 && len(frame) > max {
		return nil, errFrameTooLarge
	}
	switch err {
	case nil:
		return frame, nil
	case io.EOF:
		if len(frame) > 0 {
			return frame, nil
		}
		return nil, io.EOF
	default:
		return nil, err
	}
}

// writeResponse encodes resp into buf and sends it with one Write,
// returning buf for reuse.
func writeResponse(conn net.Conn, buf []byte, resp Response) ([]byte, error) {
	buf, err := AppendResponse(buf[:0], resp)
	if err != nil {
		return buf, err
	}
	_, err = conn.Write(buf)
	return buf, err
}

// drainPeek bounds how long a draining handler looks for a request frame
// that has already reached its socket.
const drainPeek = 10 * time.Millisecond

// framePending reports whether at least one byte of a request is waiting,
// in br or in the socket. It leaves a short read deadline on conn. An
// already-expired deadline would not do: the runtime reports it before
// reading what the socket holds.
func framePending(conn net.Conn, br *bufio.Reader) bool {
	if br.Buffered() > 0 {
		return true
	}
	if err := conn.SetReadDeadline(time.Now().Add(drainPeek)); err != nil {
		return false
	}
	_, err := br.Peek(1)
	return err == nil
}

// serveConn answers a connection's requests in order, reading each frame
// only after writing the last reply, so a connection never has two
// requests in admission, even when its peer pipelines.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	var out []byte // the reply frame, reused for every request
	for {
		select {
		case <-s.closed:
			// Drain: finish between requests, never mid-request. A frame
			// already waiting in the socket is a request in flight, so
			// read it under the normal deadline.
			if !framePending(conn, br) {
				return
			}
		default:
		}
		if err := conn.SetReadDeadline(time.Now().Add(s.readTimeout)); err != nil {
			return
		}
		frame, err := readFrame(br, s.maxRequestBytes)
		if errors.Is(err, errFrameTooLarge) {
			// Answer structurally, then drop: the rest of the line is
			// still in flight and the stream cannot be resynchronised.
			writeResponse(conn, out, Response{
				OK:    false,
				Error: fmt.Sprintf("controlplane: request exceeds %d bytes", s.maxRequestBytes),
				Code:  CodeBadRequest,
			})
			return
		}
		if err != nil {
			return // EOF, idle timeout, or transport failure
		}
		if len(bytes.TrimSpace(frame)) == 0 {
			continue // tolerate blank keep-alive lines
		}
		req, err := DecodeRequest(frame)
		if err != nil {
			writeResponse(conn, out, Response{OK: false, Error: err.Error(), Code: CodeBadRequest})
			return // malformed frame: the stream may be desynchronised
		}
		if out, err = writeResponse(conn, out, s.handle(req)); err != nil {
			return
		}
	}
}

// acquire takes the simulation semaphore, bounded by RequestTimeout. A
// timer is made only when another request holds the semaphore.
func (s *Server) acquire() bool {
	if s.TryAcquire() {
		return true
	}
	if s.opt.RequestTimeout <= 0 {
		s.sem <- struct{}{}
		return true
	}
	t := time.NewTimer(s.opt.RequestTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

// TryAcquire takes the simulation if no request holds it, without
// waiting, and reports whether it did.
func (s *Server) TryAcquire() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// release frees the simulation; it is a no-op when nothing holds it.
func (s *Server) release() {
	select {
	case <-s.sem:
	default:
	}
}

// classOf maps an op to its admission priority class.
func classOf(op Op) admit.Class {
	if op == OpOpen || op == OpClose {
		return admit.ClassLaunch
	}
	return admit.ClassIO
}

// busyResponse builds the structured load-shed reply.
func busyResponse(msg string, retryAfter time.Duration) Response {
	return Response{
		OK:          false,
		Error:       "controlplane: " + msg,
		Code:        CodeServerBusy,
		RetryAfterS: retryAfter.Seconds(),
	}
}

// handle executes one request: control reads through the snapshot path,
// which never enters admission, everything else through admission and the
// simulation. It composes the request phases below around acquire, the one
// wall-clock wait, which is both the admission queue's and the simulation
// semaphore's.
func (s *Server) handle(req Request) Response {
	if req.Op == OpStatus || req.Op == OpMetrics {
		return s.handleControl(req)
	}
	// The admit methods do not keep the ticket, so it stays on the stack.
	var tk admit.Ticket
	if resp, out := s.Admit(&tk, req); !out.Admitted {
		return resp
	}
	if !s.acquire() {
		return s.Abandon(&tk)
	}
	s.Start(&tk)
	resp := s.Execute(req)
	s.Finish(&tk)
	return resp
}

// The request phases. A virtual-time driver such as cmd/dhlload calls
// them at virtual instants, with ServerOptions.Clock set to its clock,
// and models the wait itself. The ticket is caller-owned: Admit fills it,
// Finish or Abandon hands it back.

// Admit validates an op request, classifies it and runs admission,
// filling tk. A request the outcome does not admit is answered with the
// returned reply; an admitted one may run at once, or must wait for the
// simulation when the outcome is Queued.
func (s *Server) Admit(tk *admit.Ticket, req Request) (Response, admit.Outcome) {
	if err := req.Validate(); err != nil {
		return Response{OK: false, Error: err.Error(), Code: CodeBadRequest}, admit.Outcome{}
	}
	out := s.adm.ArriveInto(tk, classOf(req.Op), s.now())
	if !out.Admitted {
		return busyResponse("overloaded: "+out.Reason.String(), out.RetryAfter), out
	}
	return Response{}, out
}

// Abandon gives up an admitted request that did not get the simulation
// within RequestTimeout and returns its busy reply.
func (s *Server) Abandon(tk *admit.Ticket) Response {
	s.adm.Abandon(tk)
	return busyResponse(fmt.Sprintf("simulation busy for %v", s.opt.RequestTimeout), s.opt.RequestTimeout)
}

// Start moves an admitted request from the waiting room to running.
func (s *Server) Start(tk *admit.Ticket) {
	s.adm.Started(tk, s.now())
}

// Execute runs one request against the simulation and builds its reply:
// status and metrics from a snapshot it refreshes first, the same reply
// Cached serves without the stale marks; ops by running the engine to
// quiescence. The caller holds the simulation.
func (s *Server) Execute(req Request) Response {
	if req.Op == OpStatus || req.Op == OpMetrics {
		s.refreshCache()
		s.cacheMu.Lock()
		defer s.cacheMu.Unlock()
		return s.snapshotReplyLocked(req)
	}
	start := s.sys.Engine.Now()
	r := &s.ops[len(s.ops)-1] // the record for IDs outside the fleet
	if req.Cart >= 0 && req.Cart < len(s.ops)-1 {
		r = &s.ops[req.Cart]
	}
	r.fired, r.err = false, nil
	id := track.CartID(req.Cart)
	switch req.Op {
	case OpOpen:
		s.sys.Open(id, r.done)
	case OpClose:
		s.sys.Close(id, r.done)
	case OpRead:
		s.sys.Read(id, bytesOf(req), r.xferDone)
	case OpWrite:
		s.sys.Write(id, bytesOf(req), r.xferDone)
	}
	if _, err := s.sys.Run(); err != nil {
		return Response{OK: false, Error: err.Error(), Code: CodeInternal, SimTime: float64(s.sys.Engine.Now())}
	}
	resp := Response{
		OK:        r.fired && r.err == nil,
		SimTime:   float64(s.sys.Engine.Now()),
		OpSeconds: float64(s.sys.Engine.Now() - start),
	}
	switch {
	case !r.fired:
		// The simulation went idle with the launch still queued, and
		// only a later request's run can free what it waits for.
		resp.Error = "controlplane: pending: the launch is queued for a dock station, rail or LIM"
		resp.Code = CodePending
	case r.err != nil:
		resp.Error = r.err.Error()
		resp.Code = CodeForError(r.err)
	}
	return resp
}

// Finish completes a request that held the simulation and releases it.
// An op (tk non-nil) publishes its snapshot to control reads and closes
// its ticket before the simulation is released, so the ledger never
// counts the op's successor as running beside it; a status or metrics
// read (tk nil) was not admitted, and Execute has already refreshed the
// snapshot it answered from. A virtual-time driver calls Finish at the
// request's completion instant, so an op's snapshot appears no earlier.
func (s *Server) Finish(tk *admit.Ticket) {
	if tk != nil {
		s.refreshCache()
	}
	s.adm.Done(tk, s.now())
	s.release()
}

// handleControl answers status/metrics. Fast path: the simulation is
// free, refresh the cache and serve it fresh. Saturated path: serve the
// cached snapshot (stale but answerable — graceful degradation). Only a
// cold cache falls back to waiting for the simulation.
func (s *Server) handleControl(req Request) Response {
	if !s.TryAcquire() {
		if resp, ok := s.Cached(req); ok {
			return resp
		}
		if !s.acquire() {
			return busyResponse(
				fmt.Sprintf("simulation busy for %v and no snapshot cached yet", s.opt.RequestTimeout),
				s.opt.RequestTimeout)
		}
	}
	resp := s.Execute(req)
	s.Finish(nil)
	return resp
}

// refreshCache publishes the snapshot served to control reads during
// saturation. It overwrites the cached snapshot in place, reusing its
// slices, so a warm refresh does not allocate. Callers hold the
// simulation semaphore.
//
//dhllint:hotpath
func (s *Server) refreshCache() {
	st := statsJSON(s.sys.ReportTotals())
	simT := float64(s.sys.Engine.Now())
	now := s.now()
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	s.cacheStats = st
	s.sys.Telemetry().MetricsOf().SnapshotInto(&s.cacheMetrics)
	s.cacheSimTime = simT
	s.cacheAt = now
	s.cacheOK = true
}

// Cached serves a status/metrics read from the snapshot cache; ok is
// false until the first request has finished.
func (s *Server) Cached(req Request) (Response, bool) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if !s.cacheOK {
		return Response{}, false
	}
	resp := s.snapshotReplyLocked(req)
	if resp.OK {
		resp.Stale = true
		resp.CacheAgeS = max(s.now().Sub(s.cacheAt).Seconds(), 0)
	}
	return resp, true
}

// snapshotReplyLocked builds a status/metrics reply from the snapshot
// cache. refreshCache overwrites the cached snapshot's slices in place,
// so everything handed out here is a deep copy. Callers hold cacheMu.
func (s *Server) snapshotReplyLocked(req Request) Response {
	if req.Op == OpMetrics {
		if !s.telemetry {
			return Response{
				OK:      false,
				Error:   "controlplane: system has no telemetry set",
				Code:    CodeNoTelemetry,
				SimTime: s.cacheSimTime,
			}
		}
		return Response{OK: true, SimTime: s.cacheSimTime, Text: telemetry.PrometheusText(s.cacheMetrics)}
	}
	st := s.cacheStats
	resp := Response{OK: true, SimTime: s.cacheSimTime, Stats: &st}
	if s.telemetry {
		m := s.cacheMetrics.Clone()
		resp.Metrics = &m
	}
	return resp
}

// Close stops the listener and drains in-flight requests: connections get
// DrainTimeout to finish their current exchange, then are forcibly closed.
func (s *Server) Close() error {
	close(s.closed)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	done := make(chan struct{})
	//dhllint:allow goroutine -- shutdown watchdog, not model code
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if s.opt.DrainTimeout > 0 {
		t := time.NewTimer(s.opt.DrainTimeout)
		defer t.Stop()
		select {
		case <-done:
			return err
		case <-t.C:
			// Drain expired: sever the stragglers so their handlers
			// unblock, then wait for the bookkeeping to finish.
			s.connMu.Lock()
			s.severConns()
			s.connMu.Unlock()
		}
	}
	<-done
	return err
}

// Error codes carried in Response.Code, derived from the fault taxonomy and
// API error set so clients can branch without parsing messages.
const (
	// CodeBadRequest: the request failed validation, was malformed, or
	// exceeded the frame cap.
	CodeBadRequest = "bad-request"
	// CodeServerBusy: the request was shed by admission control or could
	// not acquire the simulation in time; retry_after_s carries the
	// backoff hint.
	CodeServerBusy = "server-busy"
	// CodeInternal: the simulation engine itself failed.
	CodeInternal = "internal"
	// CodeUnknownCart, CodeCartBusy, CodeNotAtLibrary, CodeNotDocked: API
	// state errors.
	CodeUnknownCart  = "unknown-cart"
	CodeCartBusy     = "cart-busy"
	CodeNotAtLibrary = "not-at-library"
	CodeNotDocked    = "not-docked"
	// CodeCartFailed: SSD failure consumed the array (ssd-failure kind).
	CodeCartFailed = "cart-failed"
	// CodeDegradedRead: the read was served from surviving stripes only.
	CodeDegradedRead = "degraded-read"
	// CodeLaunchTimeout: a launch exceeded the recovery policy's budget.
	CodeLaunchTimeout = "launch-timeout"
	// CodeStorage: a storage-layer bounds error.
	CodeStorage = "storage"
	// CodeNoTelemetry: a metrics request against a system built without a
	// telemetry set.
	CodeNoTelemetry = "no-telemetry"
	// CodePending: the op did not run. It stays queued for a launch
	// resource, typically an Open while every dock station holds a cart,
	// and runs during a later request that frees one.
	CodePending = "pending"
	// CodeError: unclassified failure.
	CodeError = "error"
)

// CodeForError maps an API error chain to its structured code.
func CodeForError(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, dhlsys.ErrUnknownCart):
		return CodeUnknownCart
	case errors.Is(err, dhlsys.ErrCartBusy):
		return CodeCartBusy
	case errors.Is(err, dhlsys.ErrNotAtLibrary):
		return CodeNotAtLibrary
	case errors.Is(err, dhlsys.ErrNotDocked):
		return CodeNotDocked
	case errors.Is(err, dhlsys.ErrCartFailed):
		return CodeCartFailed
	case errors.Is(err, dhlsys.ErrDegradedRead):
		return CodeDegradedRead
	case errors.Is(err, dhlsys.ErrLaunchTimeout):
		return CodeLaunchTimeout
	case errors.Is(err, storage.ErrOutOfRange), errors.Is(err, storage.ErrOutOfSpace),
		errors.Is(err, storage.ErrNegativeLength), errors.Is(err, storage.ErrDegraded):
		return CodeStorage
	default:
		return CodeError
	}
}

// Client is the one wire exchange of the API: Do sends one Request and
// reads its Response over one connection. It is the benchmark's timed
// client, and internal/cpclient runs every attempt of its retry loop
// (deadlines, backoff, the retry budget, re-dials) through it. A Client
// belongs to one goroutine.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	out  []byte // the request frame, reused for every exchange
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("controlplane: dial: %w", err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an open connection; the caller keeps the connection's
// deadlines.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReader(conn)}
}

// Do performs one request/response exchange.
func (c *Client) Do(req Request) (Response, error) {
	out, err := AppendRequest(c.out[:0], req)
	if err != nil {
		return Response{}, fmt.Errorf("controlplane: send: %w", err)
	}
	c.out = out
	if _, err := c.conn.Write(out); err != nil {
		return Response{}, fmt.Errorf("controlplane: send: %w", err)
	}
	line, err := readFrame(c.br, 0)
	if err != nil {
		return Response{}, fmt.Errorf("controlplane: recv: %w", err)
	}
	resp, err := DecodeResponse(line)
	if err != nil {
		return Response{}, fmt.Errorf("controlplane: recv: %w", err)
	}
	return resp, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
