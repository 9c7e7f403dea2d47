package tubenet

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// Options configures a campus simulation. New fills a zero Carts,
// TripsPerCart or EpochEvery with its default.
type Options struct {
	// Topo is the tube network; nil selects NewCampus(DefaultCampusConfig()).
	Topo *Topology
	// Carts in the fleet (default 64). Each runs TripsPerCart (default 2)
	// station-to-station trips.
	Carts        int
	TripsPerCart int
	// Seed drives every random choice (start stations, destination chains,
	// launch stagger). Same seed, same byte-identical run.
	Seed int64
	// EpochEvery is the congestion-recompute period; 0 means the 30 s
	// default and negative disables epochs entirely
	// (routes still recompute on every fault transition).
	EpochEvery units.Seconds
	// Telemetry enables metrics and span recording when non-nil.
	Telemetry *telemetry.Set
}

// DefaultCartMass is the paper's 282 g cart.
const DefaultCartMass units.Grams = 282

// The fixed parameters of every campus run.
const (
	// dwellTime is the docked turnaround between trips.
	dwellTime units.Seconds = 3
	// launchSpread staggers initial departures uniformly over [0, spread).
	launchSpread units.Seconds = 30
	// queueWeight is the router's Alpha: the weight of entry-queue depth in
	// edge cost. On NewCampus's ring of spur lines only a trunk direction
	// can be re-chosen, and trunk edges never queue, so no run over such a
	// ring depends on it.
	queueWeight = 0.25
)

func (o Options) withDefaults() Options {
	if o.Carts == 0 {
		o.Carts = 64
	}
	if o.TripsPerCart == 0 {
		o.TripsPerCart = 2
	}
	if o.EpochEvery == 0 {
		o.EpochEvery = 30
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
	// planned is the committed next hop at the current node (even a
	// later-invalidated one), NoEdge when there is none. Entering a
	// different edge than planned counts as a reroute.
	planned   EdgeID
	stalled   bool
	parked    bool
	remaining units.Seconds
	arriveH   sim.Handle
	tripStart units.Seconds
	entryT    units.Seconds
	dockStart units.Seconds
	trackID   telemetry.StrID
	// next is the cart behind this one in the one cartQueue that holds it.
	next int32

	departFn func()
	arriveFn func()
	dwellFn  func()
}

// cartQueue is a FIFO of carts threaded through their next links. A cart
// is in at most one of the campus's lists: the occupants of the edge it
// is on, an edge's entry queue, a station's dock queue or the loiter
// list. So one link per cart serves them all and no list allocates.
type cartQueue struct{ head, tail, n int32 }

// push appends cart ci to q.
func (c *Campus) push(q *cartQueue, ci int32) {
	if q.n == 0 {
		q.head = ci
	} else {
		c.carts[q.tail].next = ci
	}
	q.tail = ci
	q.n++
}

// pop removes and returns the cart at the head of the non-empty q.
func (c *Campus) pop(q *cartQueue) int32 {
	ci := q.head
	q.head = c.carts[ci].next
	q.n--
	return ci
}

// unlink removes cart ci from q, keeping the rest in order. The cart is
// at the head in the usual case: carts leave an edge in the order they
// entered it.
//
//dhllint:hotpath
func (c *Campus) unlink(q *cartQueue, ci int32) {
	if q.head == ci {
		c.pop(q)
		return
	}
	p := q.head
	for c.carts[p].next != ci {
		p = c.carts[p].next
	}
	c.carts[p].next = c.carts[ci].next
	if q.tail == ci {
		q.tail = p
	}
	q.n--
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
// disabled state (every record site is nil-safe). The campus's counters
// are views of its own counts (initTelemetry) and need no handle.
type campusTel struct {
	spans       *telemetry.SpanLog
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

	baseTransit []units.Seconds

	// Liveness: down-counters tolerate overlapping fault windows; the
	// boolean views feed the router and the admission checks.
	nodeDown []int
	edgeDown []int
	nodeUp   []bool
	edgeUp   []bool

	dockFree  []int
	dockQueue []cartQueue

	// occupants holds the carts on each edge in entry order, edgeQueue
	// the carts waiting to enter it.
	occupants []cartQueue
	edgeQueue []cartQueue
	// occ and queued are bitmasks over the topology's line-bit space
	// (lineSlot): a line edge's bit is set in occ while the edge holds a
	// cart, and in queued while its entry queue is non-empty. A line edge
	// is admissible only while occ shares no bit with its conflict mask.
	occ          []uint64
	queued       []uint64
	queueScratch []int

	carts []campusCart
	dests []NodeID
	// loiter holds the carts with no live route, retried after every heal
	// and epoch.
	loiter cartQueue

	// transits holds each completed trip's duration in completion order;
	// result derives the trip count and the total from it.
	transits  []units.Seconds
	nReroutes int
	nLoiters  int
	nStalls   int
	perEdge   []EdgeStats

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
	if opt.Topo == nil {
		var err error
		if opt.Topo, err = NewCampus(DefaultCampusConfig()); err != nil {
			return nil, err
		}
	}
	stations := opt.Topo.Stations()
	if len(stations) < 2 {
		return nil, fmt.Errorf("%w: topology needs ≥ 2 stations for trips", ErrBadOptions)
	}
	return newCampus(opt, drawPlan(opt, stations))
}

// tripPlan is a fleet's itinerary: cart i starts at start[i], first
// departs at launch[i], and visits dests[i·TripsPerCart:(i+1)·TripsPerCart]
// in order.
type tripPlan struct {
	start  []NodeID
	launch []units.Seconds
	dests  []NodeID
}

// drawPlan draws the itinerary of opt's fleet from opt.Seed. Per cart it
// draws the start station, then each destination (never the station the
// cart is leaving), then the launch time.
func drawPlan(opt Options, stations []NodeID) tripPlan {
	rng := rand.New(rand.NewSource(opt.Seed))
	pick := func(not NodeID) NodeID {
		j := rng.Intn(len(stations) - 1)
		if stations[j] == not {
			j = len(stations) - 1
		}
		return stations[j]
	}
	p := tripPlan{
		start:  make([]NodeID, opt.Carts),
		launch: make([]units.Seconds, opt.Carts),
		dests:  make([]NodeID, opt.Carts*opt.TripsPerCart),
	}
	for i := range p.start {
		p.start[i] = stations[rng.Intn(len(stations))]
		prev := p.start[i]
		for t := 0; t < opt.TripsPerCart; t++ {
			prev = pick(prev)
			p.dests[i*opt.TripsPerCart+t] = prev
		}
		p.launch[i] = units.Seconds(rng.Float64() * float64(launchSpread))
	}
	return p
}

// newCampus builds the campus that flies plan over opt.Topo. opt must have
// its defaults filled and a topology set, and plan must hold opt.Carts
// carts of opt.TripsPerCart trips each.
func newCampus(opt Options, plan tripPlan) (*Campus, error) {
	topo := opt.Topo
	base, err := topo.TransitTimes(DefaultCartMass, 0)
	if err != nil {
		return nil, err
	}
	router, err := NewRouter(topo, base, queueWeight, 1)
	if err != nil {
		return nil, err
	}
	n, m := topo.NumNodes(), topo.NumEdges()
	c := &Campus{
		opt:         opt,
		topo:        topo,
		eng:         sim.New(),
		router:      router,
		baseTransit: base,

		nodeDown: make([]int, n),
		edgeDown: make([]int, m),
		nodeUp:   make([]bool, n),
		edgeUp:   make([]bool, m),

		dockFree:  make([]int, n),
		dockQueue: make([]cartQueue, n),

		queueScratch: make([]int, m),

		carts:    make([]campusCart, opt.Carts),
		dests:    plan.dests,
		transits: make([]units.Seconds, 0, opt.Carts*opt.TripsPerCart),
		perEdge:  make([]EdgeStats, m),
	}
	lists := make([]cartQueue, 2*m)
	c.occupants, c.edgeQueue = lists[:m:m], lists[m:]
	for i := range c.nodeUp {
		c.nodeUp[i] = true
		c.dockFree[i] = topo.Node(NodeID(i)).Docks
	}
	for i := range c.edgeUp {
		c.edgeUp[i] = true
	}
	w := topo.lineWords()
	masks := make([]uint64, 2*w)
	c.occ, c.queued = masks[:w:w], masks[w:]
	c.initTelemetry(opt.Telemetry)

	for i := range c.carts {
		ct := &c.carts[i]
		ct.at = plan.start[i]
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
		ct.tripStart = plan.launch[i]
		if _, err := c.eng.At(plan.launch[i], evDepart, ct.departFn); err != nil {
			return nil, err
		}
	}
	if opt.EpochEvery > 0 {
		c.eng.MustAfter(opt.EpochEvery, evEpoch, c.epoch)
	}
	return c, nil
}

// initTelemetry binds the metric handles, registers the counters and
// per-edge gauges that read the campus's own counts, and interns the span
// vocabulary.
func (c *Campus) initTelemetry(set *telemetry.Set) {
	reg := set.MetricsOf()
	c.tel = campusTel{
		spans:       set.SpansOf(),
		tripSeconds: reg.Histogram("tubenet_trip_seconds", tripBuckets),
	}
	if reg != nil {
		reg.CounterFunc("tubenet_trips_total", func() float64 { return float64(len(c.transits)) })
		reg.CounterFunc("tubenet_reroutes_total", func() float64 { return float64(c.nReroutes) })
		reg.CounterFunc("tubenet_loiters_total", func() float64 { return float64(c.nLoiters) })
		reg.CounterFunc("tubenet_stalls_total", func() float64 { return float64(c.nStalls) })
		reg.CounterFunc("tubenet_edge_entries_total", func() float64 {
			n := 0
			for e := range c.perEdge {
				n += c.perEdge[e].Entries
			}
			return float64(n)
		})
		for e := range c.perEdge {
			reg.GaugeFunc(fmt.Sprintf("tubenet_edge_%03d_util", e), func() float64 {
				if c.eng.Now() == 0 {
					return 0
				}
				return float64(c.perEdge[e].Busy) / float64(c.eng.Now())
			})
			reg.GaugeFunc(fmt.Sprintf("tubenet_edge_%03d_max_queue", e), func() float64 {
				return float64(c.perEdge[e].MaxQueue)
			})
		}
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
	if _, err := c.eng.Run(0); err != nil {
		return Result{}, err
	}
	return c.result(), nil
}

// result assembles the Result.
func (c *Campus) result() Result {
	r := Result{
		Carts:          c.opt.Carts,
		TripsCompleted: len(c.transits),
		TripsPending:   c.opt.Carts*c.opt.TripsPerCart - len(c.transits),
		Reroutes:       c.nReroutes,
		Loiters:        c.nLoiters,
		Stalls:         c.nStalls,
		LoiteringAtEnd: int(c.loiter.n),
		RouteEpochs:    c.router.Epochs(),
		Events:         c.eng.Processed(),
		Elapsed:        c.eng.Now(),
		PerEdge:        append([]EdgeStats(nil), c.perEdge...),
	}
	for i := range c.carts {
		if c.carts[i].parked {
			r.Parked++
		}
		if c.carts[i].stalled {
			r.StalledAtEnd++
		}
	}
	// Summed in completion order, the order dockCart appends in.
	for _, d := range c.transits {
		r.TotalTransit += d
	}
	for _, s := range c.perEdge {
		r.MaxQueue = max(r.MaxQueue, s.MaxQueue)
	}
	if len(c.transits) > 0 {
		scratch := append([]units.Seconds(nil), c.transits...)
		r.TransitP50 = quantileSeconds(scratch, 0.50)
		r.TransitP99 = quantileSeconds(scratch, 0.99)
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
		c.queueScratch[e] = int(c.edgeQueue[e].n)
	}
	return c.router.Recompute(context.Background(), Liveness{NodeUp: c.nodeUp, EdgeUp: c.edgeUp}, c.queueScratch)
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
	if ct.planned != NoEdge && ct.planned != h {
		c.nReroutes++
		c.tel.spans.RecordInstant(ct.trackID, c.tel.idReroute, c.eng.Now(), 0)
	}
	ct.planned = h
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
	if !c.edgeUp[e] {
		return false
	}
	s := c.topo.slotOf(e)
	if c.occ[s.lo]&s.first != 0 {
		return false
	}
	for i, m := range s.rest {
		if c.occ[int(s.lo)+1+i]&m != 0 {
			return false
		}
	}
	// A zero-capacity edge fails here too: a list's count is never
	// negative.
	return int(c.occupants[e].n) < c.topo.edgeAt(e).Capacity
}

// setBit and clearBit set and clear bit b (≥ 0) of the mask words.
//
//dhllint:hotpath
func setBit(words []uint64, b int32) { words[b>>6] |= 1 << (b & 63) }

//dhllint:hotpath
func clearBit(words []uint64, b int32) { words[b>>6] &^= 1 << (b & 63) }

// enqueueEdge parks the cart in e's FIFO entry queue.
//
//dhllint:hotpath
func (c *Campus) enqueueEdge(e EdgeID, ci int32) {
	q := &c.edgeQueue[e]
	c.push(q, ci)
	if b := c.topo.slotOf(e).bit; b >= 0 && q.n == 1 {
		setBit(c.queued, b)
	}
	if n := int(q.n); n > c.perEdge[e].MaxQueue {
		c.perEdge[e].MaxQueue = n
	}
}

// enterEdge admits the cart into segment e and schedules its arrival.
//
//dhllint:hotpath
func (c *Campus) enterEdge(ci int32, e EdgeID) {
	ct := &c.carts[ci]
	ed := c.topo.edgeAt(e)
	c.push(&c.occupants[e], ci)
	if b := c.topo.slotOf(e).bit; b >= 0 {
		setBit(c.occ, b)
	}
	c.perEdge[e].Entries++
	c.perEdge[e].Busy += c.baseTransit[e]
	ct.edge = e
	ct.entryT = c.eng.Now()
	ct.arriveH = c.eng.MustAfter(c.baseTransit[e], evArrive, ct.arriveFn)
	ct.stalled = false
	// Commit the onward hop the cart expects from the far end under the
	// current tables. If an epoch or fault recompute changes it before the
	// cart gets there, the divergence at the junction counts as a reroute.
	if ed.To != ct.dst {
		ct.planned = c.router.NextHop(ed.To, ct.dst)
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
// entry queues the release may have unblocked: for a single-rail edge,
// the non-empty queues of e's conflict set (conflict mask AND queued) in
// ascending EdgeID order; for a trunk, just e's.
//
// This admits exactly the carts that retrying every edge of the line
// would. After every event no live edge is both admissible and holding a
// non-empty queue: a cart queues only on an edge that is not admissible,
// and every release and every heal retries the queues it may unblock. The
// release changes admissibility only for the edges whose span overlaps
// the freed one — e's conflict set — and the admissions the retry makes
// can only set occ bits, so block further edges, never unblock them. An
// edge outside the set, or with an empty queue, would admit no one. The
// walk reads each word of queued as it reaches it, and a retry of edge g
// clears only g's own queued bit, so it visits every edge that was
// queued when the release began. A window spans one or more words, and
// bits ascend with EdgeID word by word, so the order is the line's
// ascending EdgeID order on a line of any width.
//
//dhllint:hotpath
func (c *Campus) releaseEdge(e EdgeID, ci int32) {
	c.unlink(&c.occupants[e], ci)
	s := c.topo.slotOf(e)
	if s.bit < 0 {
		c.retryEdgeQueue(e)
		return
	}
	if c.occupants[e].n == 0 {
		clearBit(c.occ, s.bit)
	}
	w, m, rest := int(s.lo), s.first, s.rest
	for {
		for q := m & c.queued[w]; q != 0; q &= q - 1 {
			c.retryEdgeQueue(c.topo.bitEdge[w<<6|bits.TrailingZeros64(q)])
		}
		if len(rest) == 0 {
			return
		}
		w, m, rest = w+1, rest[0], rest[1:]
	}
}

// retryEdgeQueue admits queued carts into e in FIFO order while it stays
// admissible.
//
//dhllint:hotpath
func (c *Campus) retryEdgeQueue(e EdgeID) {
	for c.edgeQueue[e].n > 0 && c.admissible(e) {
		c.enterEdge(c.popEdge(e), e)
	}
}

// popEdge removes and returns the cart at the head of e's non-empty entry
// queue, clearing e's queued bit when the queue empties.
//
//dhllint:hotpath
func (c *Campus) popEdge(e EdgeID) int32 {
	ci := c.pop(&c.edgeQueue[e])
	if b := c.topo.slotOf(e).bit; b >= 0 && c.edgeQueue[e].n == 0 {
		clearBit(c.queued, b)
	}
	return ci
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
	c.push(&c.dockQueue[ct.at], ci)
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
	c.tel.tripSeconds.Observe(float64(d))
	c.tel.spans.RecordSpan(ct.trackID, c.tel.idDock, ct.tripStart, now, 0)
	ct.trip++
	if ct.trip < c.opt.TripsPerCart {
		ct.dst = c.dests[int(ci)*c.opt.TripsPerCart+ct.trip]
		ct.planned = c.router.NextHop(ct.at, ct.dst)
	}
	c.eng.MustAfter(dwellTime, evDwell, ct.dwellFn)
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
		return
	}
	ct.tripStart = now
	c.tryDepart(ci)
}

// retryDockQueue admits dock waiters in FIFO order while slots remain.
//
//dhllint:hotpath
func (c *Campus) retryDockQueue(v NodeID) {
	for c.dockQueue[v].n > 0 && c.dockFree[v] > 0 {
		c.dockCart(c.pop(&c.dockQueue[v]))
	}
}

// loiterCart records that the cart has no live route and parks it on the
// loiter list, retried after every heal and epoch recompute.
//
//dhllint:hotpath
func (c *Campus) loiterCart(ci int32) {
	ct := &c.carts[ci]
	c.nLoiters++
	c.tel.spans.RecordInstant(ct.trackID, c.tel.idLoiter, c.eng.Now(), 0)
	c.push(&c.loiter, ci)
}

// retryLoiterers re-attempts departure for every loitering cart, in the
// order they loitered. It detaches the list first, since a retry may
// loiter the cart again; a retry only enters, queues or loiters the cart
// it retries, so the detached rest stays intact.
func (c *Campus) retryLoiterers() {
	q := c.loiter
	c.loiter = cartQueue{}
	for q.n > 0 {
		c.tryDepart(c.pop(&q))
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
	ci := c.occupants[e].head
	for k := c.occupants[e].n; k > 0; k, ci = k-1, c.carts[ci].next {
		ct := &c.carts[ci]
		if ct.stalled {
			continue
		}
		// Read the arrival time before the cancel frees its slot.
		arriveAt, _ := c.eng.EventTime(ct.arriveH)
		c.eng.Cancel(ct.arriveH)
		ct.remaining = arriveAt - now
		ct.stalled = true
		c.nStalls++
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
	ci := c.occupants[e].head
	for k := c.occupants[e].n; k > 0; k, ci = k-1, c.carts[ci].next {
		ct := &c.carts[ci]
		if !ct.stalled {
			continue
		}
		ct.stalled = false
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
	for c.edgeQueue[e].n > 0 {
		c.loiterCart(c.popEdge(e))
	}
}
