package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/bench/internal/hist"
	"repro/internal/admit"
	"repro/internal/controlplane"
	"repro/internal/dhlsys"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/units"
)

// The serve workload is an in-process server built the way cmd/dhlserve
// builds it, driven over loopback TCP by serveConns closed-loop
// connections, each owning one cart. The §III-D API is synchronous per
// cart, so each caller waits for its reply before sending the next
// request.

// serveConns is the number of load connections (and carts); it stays
// within the 2 cores the benchmark is sized for.
const serveConns = 2

// perConn is the requests each connection sends per window when a run of
// the given windows sends budget requests per second of seconds. A run is
// a fixed number of requests: the server's span log grows with every
// request, so a run sized by wall time would retain more heap the faster
// the server got; sizing by count keeps heap_peak_mb independent of speed.
func perConn(seconds, budget float64, windows int) int {
	n := int(seconds * budget / float64(serveConns*windows))
	if n < 1 {
		n = 1
	}
	return n
}

// makePlan is one connection's request sequence, repeated for as long as
// the run lasts: 64 cycles of open → write → read → write → read → close
// on its own cart, with status after every 8th cycle and metrics after
// the 64th. Sizes are drawn from the seed; each read asks for what the
// preceding write stored, so a read never exceeds what the cart holds,
// and the cart never fills.
func makePlan(seed int64, cart int) []controlplane.Request {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(cart)))
	var plan []controlplane.Request
	for cycle := 1; cycle <= 64; cycle++ {
		w1 := float64(1+rng.Intn(256)) * 1e6
		w2 := float64(1+rng.Intn(256)) * 1e6
		plan = append(plan,
			controlplane.Request{Op: controlplane.OpOpen, Cart: cart},
			controlplane.Request{Op: controlplane.OpWrite, Cart: cart, Bytes: w1},
			controlplane.Request{Op: controlplane.OpRead, Cart: cart, Bytes: w1},
			controlplane.Request{Op: controlplane.OpWrite, Cart: cart, Bytes: w2},
			controlplane.Request{Op: controlplane.OpRead, Cart: cart, Bytes: w2},
			controlplane.Request{Op: controlplane.OpClose, Cart: cart},
		)
		if cycle%8 == 0 {
			plan = append(plan, controlplane.Request{Op: controlplane.OpStatus})
		}
		if cycle%64 == 0 {
			plan = append(plan, controlplane.Request{Op: controlplane.OpMetrics})
		}
	}
	return plan
}

// serveOps are the request ops, in the order per-op metrics are named.
var serveOps = []controlplane.Op{
	controlplane.OpOpen, controlplane.OpClose, controlplane.OpRead,
	controlplane.OpWrite, controlplane.OpStatus, controlplane.OpMetrics,
}

func opIndex(op controlplane.Op) int {
	for i, o := range serveOps {
		if o == op {
			return i
		}
	}
	return len(serveOps) - 1
}

// newShadow builds a deployment identical to the server's, for computing
// what each simulation op should report.
func newShadow(telemetryOn bool) (*dhlsys.System, error) {
	opt := dhlsys.DefaultOptions()
	opt.NumCarts = serveConns
	if telemetryOn {
		opt.Telemetry = telemetry.NewSet()
	}
	return dhlsys.New(opt)
}

// shadowOp applies one simulation op to sys the way the server executes
// it — the op, then the engine run to quiescence — and returns its
// simulated duration and the events it took.
func shadowOp(sys *dhlsys.System, req controlplane.Request) (float64, int, error) {
	start, before := sys.Engine.Now(), sys.Engine.Processed()
	var opErr error
	id := track.CartID(req.Cart)
	done := func(err error) { opErr = err }
	xfer := func(_ units.Seconds, err error) { opErr = err }
	switch req.Op {
	case controlplane.OpOpen:
		sys.Open(id, done)
	case controlplane.OpClose:
		sys.Close(id, done)
	case controlplane.OpRead:
		sys.Read(id, units.Bytes(req.Bytes), xfer)
	case controlplane.OpWrite:
		sys.Write(id, units.Bytes(req.Bytes), xfer)
	default:
		return 0, 0, fmt.Errorf("shadow: %q is not a simulation op", req.Op)
	}
	if _, err := sys.Run(); err != nil {
		return 0, 0, err
	}
	if opErr != nil {
		return 0, 0, fmt.Errorf("shadow %s cart %d: %w", req.Op, req.Cart, opErr)
	}
	return float64(sys.Engine.Now() - start), sys.Engine.Processed() - before, nil
}

// planDigest hashes the simulated duration of every op in each
// connection's plan, replayed on a fresh shadow: the serve workloads'
// correctness digest.
func planDigest(seed int64) (string, map[string]float64, error) {
	var b strings.Builder
	model := map[string]float64{}
	for cart := 0; cart < serveConns; cart++ {
		sh, err := newShadow(false)
		if err != nil {
			return "", nil, err
		}
		for _, req := range makePlan(seed, cart) {
			if req.Op == controlplane.OpStatus || req.Op == controlplane.OpMetrics {
				continue
			}
			d, _, err := shadowOp(sh, req)
			if err != nil {
				return "", nil, err
			}
			b.WriteString(strconv.FormatFloat(d, 'g', -1, 64))
			b.WriteByte('\n')
			if cart == 0 {
				model[string(req.Op)+"_seconds_first"] = d
			}
		}
	}
	return digestOf(b.String()), model, nil
}

// conn is one load connection and everything only its goroutine touches
// while a window runs; the harness reads it between windows.
type conn struct {
	cart    int
	client  *controlplane.Client
	shadow  *dhlsys.System
	plan    []controlplane.Request
	next    int
	adm     func() admit.Stats
	replies []reply // simulation-op replies awaiting their shadow check

	lat           hist.Hist
	byOp          []hist.Hist // traced windows only
	events        int         // simulation events the server ran for this cart
	attempted, ok int
	errs          []string

	// Traced state: request spans, the shadow's queue depth, and the
	// deepest admission queue seen.
	tracing  bool
	spans    []span
	spanT0   time.Time
	depth    hist.Hist
	admQueue int
}

const maxConnSpans = 5000

// reply is what a simulation op's answer must match once the shadow has
// run the same op: its duration, and the server clock the duration was
// rounded on.
type reply struct {
	plan               int // the request's index in the plan
	opSeconds, simTime float64
}

// run sends n requests from the plan, timing each from send to reply. It
// checks that each reply is OK and keeps each simulation op's reply for
// verify, so the shadow's work stays out of the timed window.
func (c *conn) run(n int) {
	for i := 0; i < n; i++ {
		at := c.next
		req := c.plan[at]
		c.next = (c.next + 1) % len(c.plan)
		start := time.Now()
		resp, err := c.client.Do(req)
		end := time.Now()
		d := uint64(end.Sub(start))
		c.lat.Record(d)
		c.attempted++
		if c.tracing {
			c.byOp[opIndex(req.Op)].Record(d)
			if len(c.spans) < cap(c.spans) {
				c.spans = append(c.spans, span{"conn-" + strconv.Itoa(c.cart), string(req.Op), start.Sub(c.spanT0), end.Sub(c.spanT0)})
			}
			if c.attempted%64 == 0 {
				if q := c.adm().QueueDepth; q > c.admQueue {
					c.admQueue = q
				}
			}
		}
		if err := check(req, resp, err); err != nil {
			c.note(err)
			continue
		}
		c.ok++
		if req.Op != controlplane.OpStatus && req.Op != controlplane.OpMetrics {
			c.replies = append(c.replies, reply{at, resp.OpSeconds, resp.SimTime})
		}
	}
}

func (c *conn) note(err error) {
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}

// check verifies what one reply carries by itself: it is OK, and a status
// or metrics reply has its payload.
func check(req controlplane.Request, resp controlplane.Response, err error) error {
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("%s cart %d: %s (%s)", req.Op, req.Cart, resp.Error, resp.Code)
	}
	switch {
	case req.Op == controlplane.OpStatus && resp.Stats == nil:
		return errors.New("status reply without stats")
	case req.Op == controlplane.OpMetrics && resp.Text == "":
		return errors.New("metrics reply without text")
	}
	return nil
}

// verify replays the kept simulation ops on the shadow, in order, and
// checks each reply's op_seconds against the shadow's for the same op on
// the same cart. A mismatch turns the request into a failure. It also
// counts the events the server simulated for this cart.
func (c *conn) verify() {
	for _, r := range c.replies {
		req := c.plan[r.plan]
		want, events, err := shadowOp(c.shadow, req)
		if err == nil && !sameOpSeconds(r.opSeconds, want, r.simTime, float64(c.shadow.Engine.Now())) {
			err = fmt.Errorf("%s cart %d: op_seconds %v, shadow says %v", req.Op, req.Cart, r.opSeconds, want)
		}
		c.events += events
		if err != nil {
			c.ok--
			c.note(err)
		}
	}
	c.replies = nil
}

// sameOpSeconds reports whether the server's op duration matches the
// shadow's. The server's clock also advances for the other connection's
// cart, so the two clocks stand at different absolute times and a
// duration (end − start) can differ by their rounding: a few ulps of each.
func sameOpSeconds(got, want, serverClock, shadowClock float64) bool {
	return math.Abs(got-want) <= 8*(ulp(serverClock)+ulp(shadowClock))
}

func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// server is one running serve deployment with its load connections.
type server struct {
	srv   *controlplane.Server
	conns []*conn
}

// startServer builds the server as cmd/dhlserve does — default options,
// 2 carts, telemetry on, default hardening — on 127.0.0.1:0 and dials
// one connection per cart. traced connections sample their shadow's
// queue depth.
func startServer(seed int64, traced bool) (*server, error) {
	opt := dhlsys.DefaultOptions()
	opt.NumCarts = serveConns
	opt.Telemetry = telemetry.NewSet()
	sys, err := dhlsys.New(opt)
	if err != nil {
		return nil, err
	}
	srv, err := controlplane.NewServerWithOptions(sys, controlplane.DefaultServerOptions())
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv}
	for cart := 0; cart < serveConns; cart++ {
		cl, err := controlplane.Dial(addr)
		if err != nil {
			s.close()
			return nil, err
		}
		sh, err := newShadow(false)
		if err != nil {
			cl.Close()
			s.close()
			return nil, err
		}
		c := &conn{cart: cart, client: cl, shadow: sh, plan: makePlan(seed, cart), adm: srv.Admission}
		if traced {
			c.byOp = make([]hist.Hist, len(serveOps))
			c.spans = make([]span, 0, maxConnSpans)
			sh.Engine.AddTracer(func(sim.Event) {
				if c.tracing {
					c.depth.Record(uint64(c.shadow.Engine.Pending()))
				}
			})
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

// close hangs up every connection, then drains and stops the server.
func (s *server) close() error {
	for _, c := range s.conns {
		c.client.Close()
	}
	return s.srv.Close()
}

// window drives every connection through n requests concurrently, then,
// untimed, checks their replies against the shadows.
func (s *server) window(n int) windowOut {
	before := s.totals()
	for _, c := range s.conns {
		c.replies = make([]reply, 0, n)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range s.conns {
		wg.Add(1)
		//dhllint:allow goroutine -- one load goroutine per connection (serveConns, within nproc), joined by wg.Wait before the harness reads the connection again
		go func(c *conn) {
			defer wg.Done()
			c.run(n)
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, c := range s.conns {
		c.verify()
	}
	after := s.totals()
	return windowOut{
		wall:      wall,
		attempted: after.attempted - before.attempted,
		ok:        after.ok - before.ok,
		events:    after.events - before.events,
	}
}

type windowOut struct {
	wall                  time.Duration
	attempted, ok, events int
}

func (s *server) totals() windowOut {
	var t windowOut
	for _, c := range s.conns {
		t.attempted += c.attempted
		t.ok += c.ok
		t.events += c.events
	}
	return t
}

// setTracing switches the connections' tracing on or off between windows.
func (s *server) setTracing(on bool, t0 time.Time) {
	for _, c := range s.conns {
		c.tracing, c.spanT0 = on, t0
	}
}

// latency merges the connections' request-latency histograms.
func (s *server) latency() *hist.Hist {
	var h hist.Hist
	for _, c := range s.conns {
		h.Merge(&c.lat)
	}
	return &h
}

// resetLatency clears the latency histograms, so a phase reports only its
// own requests.
func (s *server) resetLatency() {
	for _, c := range s.conns {
		c.lat = hist.Hist{}
	}
}

// report folds the connections' outcomes into the run's tally.
func (s *server) report(tl *tally) {
	for _, c := range s.conns {
		tl.attempted += c.attempted
		tl.failed += c.attempted - c.ok
		for _, e := range c.errs {
			tl.note(e)
		}
		c.attempted, c.ok, c.errs = 0, 0, nil
	}
}

// setupServe is one serve set-up: construction, listen and dial, and one
// untimed cold cycle per connection.
func setupServe(seed int64, traced bool) (*server, error) {
	s, err := startServer(seed, traced)
	if err != nil {
		return nil, err
	}
	for _, c := range s.conns {
		c.run(6)
		c.verify()
	}
	return s, nil
}
