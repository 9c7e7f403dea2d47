package tubenet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Options configures a campus simulation. The zero value is completed by
// DefaultOptions-style defaults inside New.
type Options struct {
	// Topo is the tube network; nil selects NewCampus(DefaultCampusConfig()).
	Topo *Topology
	// Carts in the fleet. Each runs TripsPerCart station-to-station trips.
	Carts        int
	TripsPerCart int
	// Seed drives every random choice (start stations, destination chains,
	// launch stagger). Same seed, same byte-identical run.
	Seed int64
	// CartMass and DragMargin feed the per-edge degraded-physics transit
	// times (Topology.TransitTimes).
	CartMass   units.Grams
	DragMargin float64
	// DwellTime is the docked turnaround between trips.
	DwellTime units.Seconds
	// LaunchSpread staggers initial departures uniformly over [0, spread).
	LaunchSpread units.Seconds
	// EpochEvery is the congestion-recompute period; 0 means the 30 s
	// default and negative disables epochs entirely
	// (routes still recompute on every fault transition).
	EpochEvery units.Seconds
	// Alpha weights entry-queue depth into edge cost (Router).
	Alpha float64
	// MaxEvents bounds the event budget (sim.Engine.Run); ≤ 0 is unbounded.
	MaxEvents int
	// Telemetry enables metrics and span recording when non-nil.
	Telemetry *telemetry.Set
}

// DefaultCartMass is the paper's 282 g cart.
const DefaultCartMass units.Grams = 282

func (o Options) withDefaults() Options {
	if o.Carts == 0 {
		o.Carts = 64
	}
	if o.TripsPerCart == 0 {
		o.TripsPerCart = 2
	}
	if o.CartMass == 0 {
		o.CartMass = DefaultCartMass
	}
	if o.DwellTime == 0 {
		o.DwellTime = 3
	}
	if o.LaunchSpread == 0 {
		o.LaunchSpread = 30
	}
	if o.EpochEvery == 0 {
		o.EpochEvery = 30
	}
	if o.Alpha == 0 {
		o.Alpha = 0.25
	}
	return o
}

// tripBuckets is the trip-duration histogram layout, in seconds.
var tripBuckets = []float64{5, 10, 20, 50, 100, 200, 500, 1000, 2000}

// campusCart is one cart's state plus its pre-bound step closures — bound
// once at construction so the dispatch hot loop schedules without building
// a single closure.
type campusCart struct {
	at  NodeID // current node when not in transit
	dst NodeID
	// edge is the occupied segment while in transit, NoEdge otherwise.
	edge EdgeID
	trip int
	// planned is the committed next hop at the current node; hasPlan
	// distinguishes a commitment (even a later-invalidated one) from none.
	// Entering a different edge than planned counts as a reroute.
	planned   EdgeID
	hasPlan   bool
	loitering bool
	stalled   bool
	parked    bool
	arriveAt  units.Seconds
	remaining units.Seconds
	arriveH   sim.Handle
	tripStart units.Seconds
	entryT    units.Seconds
	dockStart units.Seconds
	trackID   telemetry.StrID

	departFn func()
	arriveFn func()
	dwellFn  func()
}

// EdgeStats is the per-segment utilisation summary.
type EdgeStats struct {
	// Entries counts carts admitted into the segment.
	Entries int
	// MaxQueue is the deepest entry queue observed.
	MaxQueue int
	// Busy is the accumulated cart-seconds of occupancy (base transit per
	// entry; stall extensions excluded).
	Busy units.Seconds
}

// Result summarises one campus run.
type Result struct {
	Carts          int
	TripsCompleted int
	TripsPending   int
	Parked         int
	Reroutes       int
	Loiters        int
	Stalls         int
	LoiteringAtEnd int
	StalledAtEnd   int
	MaxQueue       int
	RouteEpochs    int
	Events         int
	Elapsed        units.Seconds
	TotalTransit   units.Seconds
	TransitP50     units.Seconds
	TransitP99     units.Seconds
	PerEdge        []EdgeStats
}

// Availability is the fraction of scheduled trips that completed.
func (r Result) Availability() float64 {
	total := r.TripsCompleted + r.TripsPending
	if total == 0 {
		return 1
	}
	return float64(r.TripsCompleted) / float64(total)
}

// String renders a stable multi-line report — the byte-identity unit of
// the determinism tests.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campus: %d carts, %d/%d trips, availability %.4f\n",
		r.Carts, r.TripsCompleted, r.TripsCompleted+r.TripsPending, r.Availability())
	fmt.Fprintf(&b, "  reroutes=%d loiters=%d stalls=%d parked=%d loitering-at-end=%d stalled-at-end=%d\n",
		r.Reroutes, r.Loiters, r.Stalls, r.Parked, r.LoiteringAtEnd, r.StalledAtEnd)
	fmt.Fprintf(&b, "  transit p50=%.3fs p99=%.3fs total=%.3fs elapsed=%.3fs\n",
		float64(r.TransitP50), float64(r.TransitP99), float64(r.TotalTransit), float64(r.Elapsed))
	fmt.Fprintf(&b, "  max-queue=%d route-epochs=%d events=%d\n", r.MaxQueue, r.RouteEpochs, r.Events)
	for e, s := range r.PerEdge {
		if s.Entries == 0 && s.MaxQueue == 0 {
			continue
		}
		fmt.Fprintf(&b, "  edge %03d: entries=%d max-queue=%d busy=%.3fs\n", e, s.Entries, s.MaxQueue, float64(s.Busy))
	}
	return b.String()
}

// campusTel holds the precomputed telemetry handles; the zero value is the
// disabled state (every record site is nil-safe).
type campusTel struct {
	spans    *telemetry.SpanLog
	trips    *telemetry.Counter
	reroutes *telemetry.Counter
	loiters  *telemetry.Counter
	stalls   *telemetry.Counter
	entries  *telemetry.Counter

	tripSeconds *telemetry.Histogram

	idTransit telemetry.StrID
	idDock    telemetry.StrID
	idDwell   telemetry.StrID
	idReroute telemetry.StrID
	idLoiter  telemetry.StrID
	idStall   telemetry.StrID
	idResume  telemetry.StrID
}

// Campus is one deterministic campus simulation: a fleet of carts running
// station-to-station trips over a Topology, dispatched by a congestion-
// aware Router on the shared event kernel, with junction/segment chaos
// applied through the faults.Target interface.
type Campus struct {
	opt    Options
	topo   *Topology
	eng    *sim.Engine
	router *Router
	ctx    context.Context

	baseTransit []units.Seconds

	// Liveness: down-counters tolerate overlapping fault windows; the
	// boolean views feed the router and the admission checks.
	nodeDown []int
	edgeDown []int
	nodeUp   []bool
	edgeUp   []bool

	dockFree  []int
	dockQueue [][]int32

	edgeOcc       []int
	edgeQueue     [][]int32
	edgeOccupants [][]int32
	// blocked[e] counts the carts on edges in e's conflict set (their
	// spans overlap e's); a line edge is admissible only at zero.
	blocked      []int
	queueScratch []int

	carts     []campusCart
	dests     []NodeID
	loiterers []int32
	retrySet  []int32

	transits     []units.Seconds
	totalTransit units.Seconds
	tripsDone    int
	nReroutes    int
	nLoiters     int
	nStalls      int
	parked       int
	maxQueue     int
	perEdge      []EdgeStats

	tel campusTel
	ran bool
}

// ErrBadOptions reports an invalid campus configuration.
var ErrBadOptions = errors.New("tubenet: invalid options")

// New builds a campus simulation. All randomness (start stations,
// destination chains, launch stagger) is drawn here from a rand.Rand
// seeded with opt.Seed; the run itself is pure replay.
func New(opt Options) (*Campus, error) {
	opt = opt.withDefaults()
	if opt.Carts < 1 || opt.TripsPerCart < 1 {
		return nil, fmt.Errorf("%w: need ≥ 1 cart and ≥ 1 trip", ErrBadOptions)
	}
	topo := opt.Topo
	if topo == nil {
		var err error
		topo, err = NewCampus(DefaultCampusConfig())
		if err != nil {
			return nil, err
		}
	}
	stations := topo.Stations()
	if len(stations) < 2 {
		return nil, fmt.Errorf("%w: topology needs ≥ 2 stations for trips", ErrBadOptions)
	}
	base, err := topo.TransitTimes(opt.CartMass, opt.DragMargin)
	if err != nil {
		return nil, err
	}
	router, err := NewRouter(topo, base, opt.Alpha, 1)
	if err != nil {
		return nil, err
	}
	n, m := topo.NumNodes(), topo.NumEdges()
	c := &Campus{
		opt:         opt,
		topo:        topo,
		eng:         sim.New(),
		router:      router,
		ctx:         context.Background(),
		baseTransit: base,

		nodeDown: make([]int, n),
		edgeDown: make([]int, m),
		nodeUp:   make([]bool, n),
		edgeUp:   make([]bool, m),

		dockFree:  make([]int, n),
		dockQueue: make([][]int32, n),

		edgeOcc:       make([]int, m),
		edgeQueue:     make([][]int32, m),
		edgeOccupants: make([][]int32, m),
		blocked:       make([]int, m),
		queueScratch:  make([]int, m),

		carts:     make([]campusCart, opt.Carts),
		dests:     make([]NodeID, opt.Carts*opt.TripsPerCart),
		loiterers: make([]int32, 0, opt.Carts),
		retrySet:  make([]int32, 0, opt.Carts),
		transits:  make([]units.Seconds, 0, opt.Carts*opt.TripsPerCart),
		perEdge:   make([]EdgeStats, m),
	}
	for i := range c.nodeUp {
		c.nodeUp[i] = true
		c.dockFree[i] = topo.Node(NodeID(i)).Docks
	}
	for i := range c.edgeUp {
		c.edgeUp[i] = true
	}
	c.initTelemetry(opt.Telemetry)

	rng := rand.New(rand.NewSource(opt.Seed))
	pick := func(not NodeID) NodeID {
		j := rng.Intn(len(stations) - 1)
		if stations[j] == not {
			j = len(stations) - 1
		}
		return stations[j]
	}
	for i := range c.carts {
		ct := &c.carts[i]
		start := stations[rng.Intn(len(stations))]
		prev := start
		for t := 0; t < opt.TripsPerCart; t++ {
			d := pick(prev)
			c.dests[i*opt.TripsPerCart+t] = d
			prev = d
		}
		ct.at = start
		ct.dst = c.dests[i*opt.TripsPerCart]
		ct.edge = NoEdge
		ct.planned = NoEdge
		ci := int32(i)
		ct.departFn = func() { c.tryDepart(ci) }
		ct.arriveFn = func() { c.arrive(ci) }
		ct.dwellFn = func() { c.endDwell(ci) }
		if c.tel.spans != nil {
			ct.trackID = c.tel.spans.Intern(fmt.Sprintf("cart-%04d", i))
		}
		t0 := units.Seconds(rng.Float64() * float64(opt.LaunchSpread))
		ct.tripStart = t0
		if _, err := c.eng.At(t0, evDepart, ct.departFn); err != nil {
			return nil, err
		}
	}
	if opt.EpochEvery > 0 {
		c.eng.MustAfter(opt.EpochEvery, evEpoch, c.epoch)
	}
	return c, nil
}

// initTelemetry binds the metric handles and interns the span vocabulary.
func (c *Campus) initTelemetry(set *telemetry.Set) {
	reg := set.MetricsOf()
	c.tel = campusTel{
		spans:       set.SpansOf(),
		trips:       reg.Counter("tubenet_trips_total"),
		reroutes:    reg.Counter("tubenet_reroutes_total"),
		loiters:     reg.Counter("tubenet_loiters_total"),
		stalls:      reg.Counter("tubenet_stalls_total"),
		entries:     reg.Counter("tubenet_edge_entries_total"),
		tripSeconds: reg.Histogram("tubenet_trip_seconds", tripBuckets),
	}
	if sp := c.tel.spans; sp != nil {
		c.tel.idTransit = sp.Intern(spanTransit)
		c.tel.idDock = sp.Intern(spanDock)
		c.tel.idDwell = sp.Intern(spanDwell)
		c.tel.idReroute = sp.Intern(markReroute)
		c.tel.idLoiter = sp.Intern(markLoiter)
		c.tel.idStall = sp.Intern(markStall)
		c.tel.idResume = sp.Intern(markResume)
	}
}

// Engine exposes the simulation clock, e.g. to arm a faults.Injector.
func (c *Campus) Engine() *sim.Engine { return c.eng }

// Topology returns the network the campus runs over.
func (c *Campus) Topology() *Topology { return c.topo }

// Dims describes the deployment for faults.ScenarioDims: every node can
// suffer a JunctionFailure and every directed segment a TubeSegmentFailure.
func (c *Campus) Dims() faults.Dims {
	return faults.Dims{
		Carts:          c.opt.Carts,
		Stations:       c.topo.NumNodes(),
		DevicesPerCart: 1,
		Segments:       c.topo.NumEdges(),
	}
}

// Start computes the initial route tables without draining the event
// queue, so callers can drive the engine step-by-step (benchmarks and the
// hot-path allocation tests). Run calls it implicitly.
func (c *Campus) Start() error {
	if c.ran {
		return errors.New("tubenet: campus already ran")
	}
	c.ran = true
	return c.recomputeRoutes()
}

// Run executes the simulation to quiescence and returns the summary. A
// Campus runs once.
func (c *Campus) Run() (Result, error) {
	if err := c.Start(); err != nil {
		return Result{}, err
	}
	if _, err := c.eng.Run(c.opt.MaxEvents); err != nil {
		return Result{}, err
	}
	return c.result(), nil
}

// result assembles the Result and exports the per-edge telemetry gauges.
func (c *Campus) result() Result {
	r := Result{
		Carts:          c.opt.Carts,
		TripsCompleted: c.tripsDone,
		TripsPending:   c.opt.Carts*c.opt.TripsPerCart - c.tripsDone,
		Parked:         c.parked,
		Reroutes:       c.nReroutes,
		Loiters:        c.nLoiters,
		Stalls:         c.nStalls,
		MaxQueue:       c.maxQueue,
		RouteEpochs:    c.router.Epochs(),
		Events:         c.eng.Processed(),
		Elapsed:        c.eng.Now(),
		TotalTransit:   c.totalTransit,
		PerEdge:        append([]EdgeStats(nil), c.perEdge...),
	}
	r.LoiteringAtEnd = len(c.loiterers)
	for i := range c.carts {
		if c.carts[i].stalled {
			r.StalledAtEnd++
		}
	}
	if len(c.transits) > 0 {
		scratch := append([]units.Seconds(nil), c.transits...)
		r.TransitP50 = quantileSeconds(scratch, 0.50)
		r.TransitP99 = quantileSeconds(scratch, 0.99)
	}
	if reg := c.opt.Telemetry.MetricsOf(); reg != nil && c.eng.Now() > 0 {
		for e := range c.perEdge {
			util := float64(c.perEdge[e].Busy) / float64(c.eng.Now())
			reg.Gauge(fmt.Sprintf("tubenet_edge_%03d_util", e)).Set(util)
			reg.Gauge(fmt.Sprintf("tubenet_edge_%03d_max_queue", e)).Set(float64(c.perEdge[e].MaxQueue))
		}
	}
	return r
}

// quantileSeconds returns the nearest-rank quantile of xs: the element a
// full sort would put at index ⌊q·(n−1)⌋. It selects it in place by
// quickselect (median-of-three pivot, Hoare partition), reordering xs.
func quantileSeconds(xs []units.Seconds, q float64) units.Seconds {
	k := int(q * float64(len(xs)-1))
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		// Partition around p = xs[mid]: afterwards xs[lo..j] ≤ p ≤
		// xs[j+1..hi], with lo ≤ j < hi because mid rounds down.
		p := xs[mid]
		i, j := lo-1, hi+1
		for {
			for i++; xs[i] < p; i++ {
			}
			for j--; p < xs[j]; j-- {
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return xs[k]
}

// recomputeRoutes rebuilds the routing tables from current liveness and
// queue depths. Called at epochs and on every fault transition — never
// from the dispatch hot loop.
func (c *Campus) recomputeRoutes() error {
	for e := range c.queueScratch {
		c.queueScratch[e] = len(c.edgeQueue[e])
	}
	return c.router.Recompute(c.ctx, Liveness{NodeUp: c.nodeUp, EdgeUp: c.edgeUp}, c.queueScratch)
}

// mustRecompute is recomputeRoutes for event context, where the only
// failure mode (a cancelled context) cannot occur.
func (c *Campus) mustRecompute() {
	if err := c.recomputeRoutes(); err != nil {
		panic(err)
	}
}

// epoch is the periodic congestion recompute. It reschedules itself only
// while other events are pending, so a fully partitioned simulation drains
// instead of ticking forever over immovable carts.
func (c *Campus) epoch() {
	c.mustRecompute()
	c.retryLoiterers()
	if c.eng.Pending() > 0 {
		c.eng.MustAfter(c.opt.EpochEvery, evEpoch, c.epoch)
	}
}

// ---- dispatch hot loop ----------------------------------------------------

// tryDepart routes the cart out of its current node: committing (and
// reroute-accounting) the next hop, then entering the edge, queueing on
// it, or loitering when no live path exists.
//
//dhllint:hotpath
func (c *Campus) tryDepart(ci int32) {
	ct := &c.carts[ci]
	if !c.nodeUp[ct.at] {
		c.loiterCart(ci)
		return
	}
	h := c.router.NextHop(ct.at, ct.dst)
	if h == NoEdge {
		c.loiterCart(ci)
		return
	}
	if ct.hasPlan && ct.planned != h {
		c.nReroutes++
		c.tel.reroutes.Inc()
		c.tel.spans.RecordInstant(ct.trackID, c.tel.idReroute, c.eng.Now(), 0)
	}
	ct.planned = h
	ct.hasPlan = true
	if !c.admissible(h) {
		c.enqueueEdge(h, ci)
		return
	}
	c.enterEdge(ci, h)
}

// admissible reports whether a cart may enter edge e now: the edge is
// live, has a free capacity slot, and (for single-rail edges) no cart
// holds an overlapping span of its line.
//
//dhllint:hotpath
func (c *Campus) admissible(e EdgeID) bool {
	if !c.edgeUp[e] || c.blocked[e] > 0 {
		return false
	}
	ed := c.topo.edgeAt(e)
	return ed.Capacity > 0 && c.edgeOcc[e] < ed.Capacity
}

// enqueueEdge parks the cart in e's FIFO entry queue.
//
//dhllint:hotpath
func (c *Campus) enqueueEdge(e EdgeID, ci int32) {
	c.edgeQueue[e] = append(c.edgeQueue[e], ci)
	if n := len(c.edgeQueue[e]); n > c.perEdge[e].MaxQueue {
		c.perEdge[e].MaxQueue = n
		if n > c.maxQueue {
			c.maxQueue = n
		}
	}
}

// enterEdge admits the cart into segment e and schedules its arrival.
//
//dhllint:hotpath
func (c *Campus) enterEdge(ci int32, e EdgeID) {
	ct := &c.carts[ci]
	ed := c.topo.edgeAt(e)
	c.edgeOcc[e]++
	c.edgeOccupants[e] = append(c.edgeOccupants[e], ci)
	for _, g := range c.topo.conflictsOf(e) {
		c.blocked[g]++
	}
	c.perEdge[e].Entries++
	c.perEdge[e].Busy += c.baseTransit[e]
	c.tel.entries.Inc()
	ct.edge = e
	ct.entryT = c.eng.Now()
	ct.arriveAt = ct.entryT + c.baseTransit[e]
	ct.arriveH = c.eng.MustAfter(c.baseTransit[e], evArrive, ct.arriveFn)
	ct.stalled = false
	// Commit the onward hop the cart expects from the far end under the
	// current tables. If an epoch or fault recompute changes it before the
	// cart gets there, the divergence at the junction counts as a reroute.
	if ed.To != ct.dst {
		ct.planned = c.router.NextHop(ed.To, ct.dst)
		ct.hasPlan = ct.planned != NoEdge
	}
}

// arrive completes a segment transit: the cart releases the segment (and
// its line span), then docks at its destination or relays onward.
//
//dhllint:hotpath
func (c *Campus) arrive(ci int32) {
	ct := &c.carts[ci]
	e := ct.edge
	v := c.topo.edgeAt(e).To
	c.tel.spans.RecordSpan(ct.trackID, c.tel.idTransit, ct.entryT, c.eng.Now(), 0)
	c.releaseEdge(e, ci)
	ct.edge = NoEdge
	ct.at = v
	// The plan committed at entry survives to tryDepart so mid-flight
	// route changes are reroute-accounted; a dock clears it implicitly
	// (dockCart recommits for the next trip).
	if v == ct.dst {
		c.tryDock(ci)
		return
	}
	c.tryDepart(ci)
}

// releaseEdge frees the cart's capacity slot and span, then retries the
// entry queues the release may have unblocked: those of e's conflict set
// in ascending EdgeID order for a single-rail edge, or just e's for a
// trunk.
//
// Retrying only the conflict set admits exactly the carts that retrying
// every edge of the line would. After every event no edge is both
// admissible and holding a non-empty queue: a cart queues only on an edge
// that is not admissible, and every release and every heal retries the
// queues it may unblock. The release changes admissibility only for the
// edges whose span overlaps the freed one — e's conflict set — and the
// admissions the retry makes can only block further edges, never unblock
// them. So an edge outside the set is still either blocked or idle when
// its turn would come, and retrying it would admit no one.
//
//dhllint:hotpath
func (c *Campus) releaseEdge(e EdgeID, ci int32) {
	c.edgeOcc[e]--
	c.removeOccupant(e, ci)
	conflicts := c.topo.conflictsOf(e)
	if conflicts == nil {
		c.retryEdgeQueue(e)
		return
	}
	for _, g := range conflicts {
		c.blocked[g]--
	}
	for _, g := range conflicts {
		c.retryEdgeQueue(g)
	}
}

// removeOccupant drops ci from e's occupant list, preserving order so
// stall processing stays deterministic.
//
//dhllint:hotpath
func (c *Campus) removeOccupant(e EdgeID, ci int32) {
	occ := c.edgeOccupants[e]
	for i, o := range occ {
		if o == ci {
			copy(occ[i:], occ[i+1:])
			c.edgeOccupants[e] = occ[:len(occ)-1]
			return
		}
	}
}

// retryEdgeQueue admits queued carts into e in FIFO order while it stays
// admissible.
//
//dhllint:hotpath
func (c *Campus) retryEdgeQueue(e EdgeID) {
	for len(c.edgeQueue[e]) > 0 && c.admissible(e) {
		q := c.edgeQueue[e]
		ci := q[0]
		copy(q, q[1:])
		c.edgeQueue[e] = q[:len(q)-1]
		c.enterEdge(ci, e)
	}
}

// tryDock claims a dock slot at the cart's destination or joins the
// station's dock FIFO (the cart waits in a siding, holding no tube
// resources).
//
//dhllint:hotpath
func (c *Campus) tryDock(ci int32) {
	ct := &c.carts[ci]
	if c.dockFree[ct.at] > 0 {
		c.dockCart(ci)
		return
	}
	c.dockQueue[ct.at] = append(c.dockQueue[ct.at], ci)
}

// dockCart completes the trip: claims the dock, accounts trip time, lines
// up the next trip's destination (committing its planned hop, so chaos
// during the dwell shows up as a reroute), and schedules the dwell.
//
//dhllint:hotpath
func (c *Campus) dockCart(ci int32) {
	ct := &c.carts[ci]
	now := c.eng.Now()
	c.dockFree[ct.at]--
	ct.dockStart = now
	d := now - ct.tripStart
	c.transits = append(c.transits, d)
	c.totalTransit += d
	c.tripsDone++
	c.tel.trips.Inc()
	c.tel.tripSeconds.Observe(float64(d))
	c.tel.spans.RecordSpan(ct.trackID, c.tel.idDock, ct.tripStart, now, 0)
	ct.trip++
	if ct.trip < c.opt.TripsPerCart {
		ct.dst = c.dests[int(ci)*c.opt.TripsPerCart+ct.trip]
		h := c.router.NextHop(ct.at, ct.dst)
		ct.planned = h
		ct.hasPlan = h != NoEdge
	}
	c.eng.MustAfter(c.opt.DwellTime, evDwell, ct.dwellFn)
}

// endDwell releases the dock slot and either parks the cart (all trips
// done) or starts its next trip.
//
//dhllint:hotpath
func (c *Campus) endDwell(ci int32) {
	ct := &c.carts[ci]
	now := c.eng.Now()
	c.tel.spans.RecordSpan(ct.trackID, c.tel.idDwell, ct.dockStart, now, 0)
	c.dockFree[ct.at]++
	c.retryDockQueue(ct.at)
	if ct.trip >= c.opt.TripsPerCart {
		ct.parked = true
		c.parked++
		return
	}
	ct.tripStart = now
	c.tryDepart(ci)
}

// retryDockQueue admits dock waiters in FIFO order while slots remain.
//
//dhllint:hotpath
func (c *Campus) retryDockQueue(v NodeID) {
	for len(c.dockQueue[v]) > 0 && c.dockFree[v] > 0 {
		q := c.dockQueue[v]
		ci := q[0]
		copy(q, q[1:])
		c.dockQueue[v] = q[:len(q)-1]
		c.dockCart(ci)
	}
}

// loiterCart records that the cart has no live route and parks it on the
// loiter list, retried after every heal and epoch recompute.
//
//dhllint:hotpath
func (c *Campus) loiterCart(ci int32) {
	ct := &c.carts[ci]
	c.nLoiters++
	c.tel.loiters.Inc()
	c.tel.spans.RecordInstant(ct.trackID, c.tel.idLoiter, c.eng.Now(), 0)
	if !ct.loitering {
		ct.loitering = true
		c.loiterers = append(c.loiterers, ci)
	}
}

// retryLoiterers re-attempts departure for every loitering cart (the
// copy-then-clear idiom: a retry may legitimately re-loiter the cart).
func (c *Campus) retryLoiterers() {
	if len(c.loiterers) == 0 {
		return
	}
	c.retrySet = append(c.retrySet[:0], c.loiterers...)
	c.loiterers = c.loiterers[:0]
	for _, ci := range c.retrySet {
		c.carts[ci].loitering = false
		c.tryDepart(ci)
	}
}

// ---- fault handling (faults.Target) ---------------------------------------

// Inject applies a campus fault. Kinds outside the campus taxonomy are
// ignored — a shared chaos script may carry point-to-point faults too.
func (c *Campus) Inject(f faults.Fault) {
	switch f.Kind {
	case faults.JunctionFailure:
		c.killNode(NodeID(f.Station))
	case faults.TubeSegmentFailure:
		c.killEdge(EdgeID(f.Segment))
	}
}

// Recover repairs a campus fault.
func (c *Campus) Recover(f faults.Fault) {
	switch f.Kind {
	case faults.JunctionFailure:
		c.healNode(NodeID(f.Station))
	case faults.TubeSegmentFailure:
		c.healEdge(EdgeID(f.Segment))
	}
}

// killNode takes a junction/station out of service: no departures, the
// router excludes it, and carts queued on its out-edges fall back to
// loitering. Inbound carts still arrive — the tube physically ends there.
func (c *Campus) killNode(v NodeID) {
	c.nodeDown[v]++
	if c.nodeDown[v] > 1 {
		return // already down under an overlapping fault window
	}
	c.nodeUp[v] = false
	for _, e := range c.topo.Out(v) {
		c.drainQueueToLoiter(e)
	}
	c.mustRecompute()
}

// healNode returns a node to service once every overlapping fault window
// has closed, then reroutes and retries the loiterers.
func (c *Campus) healNode(v NodeID) {
	c.nodeDown[v]--
	if c.nodeDown[v] > 0 {
		return
	}
	c.nodeUp[v] = true
	c.mustRecompute()
	c.retryLoiterers()
}

// killEdge kills a tube segment: queued carts reroute (via loiter), and
// carts mid-segment coast to a protected stop — their arrivals are
// cancelled and rescheduled with the remaining transit when the segment
// heals.
func (c *Campus) killEdge(e EdgeID) {
	c.edgeDown[e]++
	if c.edgeDown[e] > 1 {
		return
	}
	c.edgeUp[e] = false
	c.drainQueueToLoiter(e)
	now := c.eng.Now()
	for _, ci := range c.edgeOccupants[e] {
		ct := &c.carts[ci]
		if ct.stalled {
			continue
		}
		c.eng.Cancel(ct.arriveH)
		ct.remaining = ct.arriveAt - now
		ct.stalled = true
		c.nStalls++
		c.tel.stalls.Inc()
		c.tel.spans.RecordInstant(ct.trackID, c.tel.idStall, now, 0)
	}
	c.mustRecompute()
}

// healEdge restores a segment: stalled carts resume with their remaining
// transit time, then the network reroutes and retries the loiterers.
func (c *Campus) healEdge(e EdgeID) {
	c.edgeDown[e]--
	if c.edgeDown[e] > 0 {
		return
	}
	c.edgeUp[e] = true
	now := c.eng.Now()
	for _, ci := range c.edgeOccupants[e] {
		ct := &c.carts[ci]
		if !ct.stalled {
			continue
		}
		ct.stalled = false
		ct.arriveAt = now + ct.remaining
		ct.arriveH = c.eng.MustAfter(ct.remaining, evArrive, ct.arriveFn)
		c.tel.spans.RecordInstant(ct.trackID, c.tel.idResume, now, 0)
	}
	c.mustRecompute()
	c.retryLoiterers()
	c.retryEdgeQueue(e)
}

// drainQueueToLoiter moves every cart queued on e to the loiter list; each
// keeps its committed (now dead) plan, so its eventual escape over a
// different edge is counted as a reroute.
func (c *Campus) drainQueueToLoiter(e EdgeID) {
	q := c.edgeQueue[e]
	for _, ci := range q {
		c.loiterCart(ci)
	}
	c.edgeQueue[e] = q[:0]
}
