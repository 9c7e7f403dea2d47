package twin

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/bench/_twin/internal/controlplane"
	"repro/bench/_twin/internal/core"
	"repro/bench/_twin/internal/dhlsys"
	"repro/bench/_twin/internal/faults"
	"repro/bench/_twin/internal/telemetry"
	"repro/bench/_twin/internal/track"
	"repro/bench/_twin/internal/tubenet"
	"repro/bench/_twin/internal/units"
	"repro/bench/internal/hist"
)

// This file repeats the untraced path of bench/dhlbench's workload code
// (sims.go and serve.go), bound to the frozen packages. Inside a timed
// interval the two run the same code, except that a repository rep also
// copies a few model outputs into maps, microseconds in a rep of tens of
// milliseconds. Any other difference there would show up as a speed
// difference between the repository and its twin, so the two must change
// together.

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

// rep is one complete simulation's events and digest.
type rep struct {
	events int
	digest string
}

const campusHorizon units.Seconds = 300

func campusRep(seed int64, chaos bool, carts, trips int) (rep, error) {
	opt := tubenet.Options{Carts: carts, TripsPerCart: trips, Seed: seed}
	if !chaos {
		opt.EpochEvery = -1
	}
	c, err := tubenet.New(opt)
	if err != nil {
		return rep{}, err
	}
	if chaos {
		script, err := faults.ScenarioDims(faults.ScenarioCampusPartition, seed, campusHorizon, c.Dims())
		if err != nil {
			return rep{}, err
		}
		inj, err := faults.NewInjector(c.Engine(), c, script)
		if err != nil {
			return rep{}, err
		}
		if err := inj.Arm(); err != nil {
			return rep{}, err
		}
	}
	res, err := c.Run()
	if err != nil {
		return rep{}, err
	}
	if got, want := res.TripsCompleted+res.TripsPending, carts*trips; got != want {
		return rep{}, fmt.Errorf("campus: %d trips completed + pending, want %d", got, want)
	}
	return rep{events: res.Events, digest: digestOf(res.String())}, nil
}

// shuttle runs shuttle-bulk reps into one long-lived telemetry set that
// every rep resets.
type shuttle struct {
	seed    int64
	dataset units.Bytes
	set     *telemetry.Set
}

func (r *shuttle) options() (dhlsys.Options, error) {
	opt := dhlsys.DefaultOptions()
	opt.NumCarts = 4
	opt.RailMode = track.DualRail
	opt.Seed = r.seed
	an, err := core.Transfer(opt.Core, r.dataset)
	if err != nil {
		return opt, err
	}
	dims := faults.Dims{Carts: opt.NumCarts, Stations: opt.DockStations, DevicesPerCart: opt.Core.Cart.Config.NumSSDs}
	script, err := faults.ScenarioDims(faults.ScenarioRoughDay, r.seed, an.Time*1.1, dims)
	if err != nil {
		return opt, err
	}
	opt.Faults = &script
	opt.Telemetry = r.set
	return opt, nil
}

func (r *shuttle) rep() (rep, error) {
	r.set.Reset()
	opt, err := r.options()
	if err != nil {
		return rep{}, err
	}
	sys, err := dhlsys.New(opt)
	if err != nil {
		return rep{}, err
	}
	res, err := sys.Shuttle(dhlsys.ShuttleOptions{Dataset: r.dataset, ReadAtEndpoint: true})
	if err != nil {
		return rep{}, err
	}
	if res.BytesDelivered < r.dataset {
		return rep{}, fmt.Errorf("shuttle: delivered %v of %v", res.BytesDelivered, r.dataset)
	}
	st := sys.Stats()
	return rep{events: sys.Engine.Processed(), digest: digestOf(fmt.Sprintf("%+v\n%+v", res, st))}, nil
}

// The serve workload: a server built as cmd/dhlserve builds it, driven over
// loopback TCP by serveConns closed-loop connections, one cart each.

const serveConns = 2

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

func newShadow() (*dhlsys.System, error) {
	opt := dhlsys.DefaultOptions()
	opt.NumCarts = serveConns
	return dhlsys.New(opt)
}

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

type conn struct {
	cart    int
	client  *controlplane.Client
	shadow  *dhlsys.System
	plan    []controlplane.Request
	next    int
	replies []reply

	lat           hist.Hist
	events        int
	attempted, ok int
	errs          []string
}

type reply struct {
	plan               int
	opSeconds, simTime float64
}

func (c *conn) run(n int) {
	for i := 0; i < n; i++ {
		at := c.next
		req := c.plan[at]
		c.next = (c.next + 1) % len(c.plan)
		start := time.Now()
		resp, err := c.client.Do(req)
		end := time.Now()
		c.lat.Record(uint64(end.Sub(start)))
		c.attempted++
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

func sameOpSeconds(got, want, serverClock, shadowClock float64) bool {
	return math.Abs(got-want) <= 8*(ulp(serverClock)+ulp(shadowClock))
}

func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

type server struct {
	srv   *controlplane.Server
	conns []*conn
}

func startServer(seed int64) (*server, error) {
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
		sh, err := newShadow()
		if err != nil {
			cl.Close()
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, &conn{cart: cart, client: cl, shadow: sh, plan: makePlan(seed, cart)})
	}
	return s, nil
}

func (s *server) close() error {
	for _, c := range s.conns {
		c.client.Close()
	}
	return s.srv.Close()
}

// window drives every connection through n requests concurrently and
// returns their wall time; then, untimed, it checks their replies.
func (s *server) window(n int) time.Duration {
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
	return wall
}

// drain returns the connections' counts and latencies since the last
// drain, and clears them.
func (s *server) drain() Reply {
	var r Reply
	var lat hist.Hist
	for _, c := range s.conns {
		r.Attempted += c.attempted
		r.OK += c.ok
		r.Events += c.events
		r.Errs = append(r.Errs, c.errs...)
		lat.Merge(&c.lat)
		c.attempted, c.ok, c.events, c.errs, c.lat = 0, 0, 0, nil, hist.Hist{}
	}
	r.P50Ns = lat.Quantile(0.5)
	return r
}

func setupServe(seed int64) (*server, error) {
	s, err := startServer(seed)
	if err != nil {
		return nil, err
	}
	for _, c := range s.conns {
		c.run(6)
		c.verify()
	}
	return s, nil
}
