// Package dhlsys is the event-driven simulation of a full DHL deployment:
// carts, a library, an endpoint dock bank, the rail(s), the cart scheduler,
// and the software API of §III-D (Open / Close / Read / Write). It composes
// the physics and analytical models (internal/core) with the shuttle plant
// (plant.go) on the shared event kernel (internal/sim).
//
// The simulation charges exactly the analytical model's launch time and
// energy per one-way trip, so sequential bulk transfers agree with
// internal/core's closed-form answers; its value is everything the closed
// form cannot express — multi-dock pipelining, dual-rail concurrency,
// contention, queueing, and in-flight SSD failures.
package dhlsys

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/physics"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/units"
)

// Options configures a simulated deployment.
type Options struct {
	// Core is the physical DHL configuration (cart, track, LIM, docking).
	Core core.Config
	// RailMode selects single or dual rail (§VI alternative track designs).
	RailMode track.RailMode
	// DockStations at the endpoint (vertically stacked, §III-B.5).
	DockStations int
	// NumCarts in the fleet.
	NumCarts int
	// RAID level of each cart's array and the docking PCIe interface.
	RAID        storage.RAIDLevel
	PCIeGen     int
	LanesPerSSD int
	// FailureRate is the per-launch probability that one SSD on the cart
	// fails in flight (§III-D failure amelioration).
	FailureRate float64
	// Seed drives the failure-injection RNG; simulations are deterministic
	// for a fixed seed.
	Seed int64
	// Wear, if non-nil, tracks connector mating cycles per cart (§VI
	// connector longevity); carts due for service are re-connectored at
	// the library, paying the connector's replacement downtime.
	Wear *fleet.Fleet
	// Faults, if non-nil, is a deterministic fault script armed on the
	// event kernel at construction (chaos scenarios, §III-D failure
	// amelioration). The per-launch FailureRate dice roll feeds the same
	// injector, so scripted and stochastic faults share one log and
	// taxonomy.
	Faults *faults.Script
	// Recovery configures the failure-amelioration policies.
	Recovery RecoveryPolicy
	// Tube overrides the vacuum tube model (zero value = physics
	// DefaultTube at rough vacuum). Vacuum-leak faults raise its pressure.
	Tube physics.Tube
	// Telemetry, if non-nil, instruments the whole deployment: metrics on
	// the set's registry, cart lifecycle spans and fault marks on its span
	// log. Nil (the default) disables instrumentation entirely — the hot
	// paths then pay only nil checks.
	Telemetry *telemetry.Set
}

// RecoveryPolicy configures how the system ameliorates faults (§III-D:
// "RAID and backups can ameliorate the issue").
type RecoveryPolicy struct {
	// StrictSSD restores the pre-amelioration behaviour: any SSD failure
	// on a non-redundant array fails the whole cart (ErrCartFailed) even
	// though surviving stripes are readable. Off by default — degraded
	// RAID0 arrays serve the surviving fraction.
	StrictSSD bool
	// LaunchTimeout, when positive, makes a launch whose undock-to-dock
	// time exceeds it report ErrLaunchTimeout to the caller. The cart
	// still arrives (the plant cannot abort mid-tube); the timeout is the
	// management layer's signal to redeliver.
	LaunchTimeout units.Seconds
	// RetryBackoff is the initial delay before a failed delivery is
	// retried by the bulk-transfer driver; it doubles per consecutive
	// failure up to 16× RetryBackoff. Zero retries immediately (the
	// pre-policy behaviour).
	RetryBackoff units.Seconds
}

// DefaultOptions is the paper's primary setup: default DHL, single rail,
// 4 docking stations, 2-cart fleet, RAID0, PCIe 6 ×1/SSD, no failures.
func DefaultOptions() Options {
	return Options{
		Core:         core.DefaultConfig(),
		RailMode:     track.SingleRail,
		DockStations: 4,
		NumCarts:     2,
		RAID:         storage.RAID0,
		PCIeGen:      6,
		LanesPerSSD:  1,
	}
}

// Location of a cart.
type Location int

const (
	// AtLibrary: parked in cold storage.
	AtLibrary Location = iota
	// InTransit: on the rail.
	InTransit
	// AtDock: docked at the endpoint (or mid-dock).
	AtDock
)

// String implements fmt.Stringer.
func (l Location) String() string {
	switch l {
	case AtLibrary:
		return "library"
	case InTransit:
		return "transit"
	case AtDock:
		return "dock"
	default:
		return fmt.Sprintf("Location(%d)", int(l))
	}
}

// Cart is a simulated cart: identity, storage array, and position.
type Cart struct {
	ID    track.CartID
	Array *storage.Array
	Loc   Location
	// Busy marks a cart with an in-flight operation (launch, return, IO).
	Busy bool

	// In-flight transit bookkeeping, used by stall faults to push the
	// arrival event out: the pending rail-transit event, its callback,
	// and the rail direction slot the cart holds.
	transitEv   sim.Handle
	transitFn   func()
	transitName string
	transitDir  track.Direction
	// launchStart is when the current launch acquired its resources
	// (launch-timeout accounting).
	launchStart units.Seconds
	// spanTrack is the cart's telemetry track name ("cart-N"); trackID is
	// its interned span-log ID, bound in initTelemetry (zero when
	// telemetry is disabled — harmless, records on a nil log are no-ops).
	spanTrack string
	trackID   telemetry.StrID
	// needsService marks a cart whose connector was damaged by a
	// dock-station failure; it is force-serviced at the library.
	needsService bool
	// scratch is the cart's reusable operation state and pre-bound launch
	// steps (see scratch.go); valid while Busy.
	scratch launchScratch
}

// Stats accumulates simulation-wide accounting.
type Stats struct {
	Launches     int // one-way trips completed
	DockOps      int // dock + undock operations
	Energy       units.Joules
	BytesRead    units.Bytes
	BytesWritten units.Bytes
	FailuresSeen int // SSDs failed in flight
	Denied       int // API requests failed immediately
	Queued       int // API requests that had to wait for resources
	// Connector-wear accounting (only populated when Options.Wear is set).
	ConnectorServices int
	MaintenanceTime   units.Seconds
	MaintenanceCost   units.USD
	// Fault-recovery accounting (§III-D amelioration).
	DegradedLaunches int           // launches flown at reduced speed under partial vacuum
	DegradedReads    int           // reads served from a degraded array's surviving stripes
	DegradedBytes    units.Bytes   // bytes those reads served
	Stalls           int           // in-flight carts stalled by track faults
	StallTime        units.Seconds // cumulative arrival delay stalls added
	Reroutes         int           // launches reverse-run over the opposite rail
	Timeouts         int           // launches that exceeded Recovery.LaunchTimeout
	Backoffs         int           // delivery retries delayed by backoff
	BackoffWait      units.Seconds // cumulative backoff delay
}

// API errors (§III-D: "the endpoint's DHL API will report the error").
var (
	ErrUnknownCart   = errors.New("dhlsys: unknown cart")
	ErrCartBusy      = errors.New("dhlsys: cart has an operation in flight")
	ErrNotAtLibrary  = errors.New("dhlsys: cart not at the library")
	ErrNotDocked     = errors.New("dhlsys: cart not docked at the endpoint")
	ErrCartFailed    = errors.New("dhlsys: cart storage failed in flight")
	ErrDegradedRead  = errors.New("dhlsys: degraded read served only surviving stripes")
	ErrLaunchTimeout = errors.New("dhlsys: launch exceeded the configured timeout")
)

// System is a running deployment simulation.
type System struct {
	Engine *sim.Engine

	opt    Options
	launch core.LaunchMetrics
	plant  plant
	carts  []*Cart // indexed by CartID: New assigns IDs 0..NumCarts−1
	rng    *rand.Rand
	stats  Stats

	// Fault-injection state.
	inj   *faults.Injector
	tube  physics.Tube
	leaks []float64 // active leak pressures, Pa (max governs)
	// limDown counts active power-loss faults per launch direction
	// (index 0 = outbound LIM at the library, 1 = inbound at the endpoint).
	limDown [2]int

	// waiting holds deferred Open requests (FIFO).
	waiting []func() bool

	// autoReload refills cart arrays on return to the library (the dataset
	// resides in the library; reload time is not charged, per §V-B). Enabled
	// by Shuttle when endpoint reads are requested, so that carts whose
	// failed SSDs were serviced leave fully loaded again.
	autoReload bool

	// Telemetry (optional): the set handed in via Options and the
	// precomputed handles the hot paths touch (all nil when disabled).
	telSet *telemetry.Set
	tel    telemetryHooks
}

// New builds a system with the fleet parked at the library.
func New(opt Options) (*System, error) {
	if opt.NumCarts < 1 {
		return nil, errors.New("dhlsys: need at least one cart")
	}
	if opt.FailureRate < 0 || opt.FailureRate > 1 {
		return nil, fmt.Errorf("dhlsys: failure rate must be in [0,1], got %v", opt.FailureRate)
	}
	l, err := core.Launch(opt.Core)
	if err != nil {
		return nil, err
	}
	if opt.DockStations < 1 {
		return nil, errors.New("dhlsys: dock bank needs ≥1 station")
	}
	tube := opt.Tube
	if tube.CrossSectionArea <= 0 {
		tube = physics.DefaultTube()
	}
	s := &System{
		Engine: sim.New(),
		opt:    opt,
		launch: l,
		plant:  newPlant(opt.RailMode, opt.DockStations),
		carts:  make([]*Cart, opt.NumCarts),
		rng:    rand.New(rand.NewSource(opt.Seed)),
		tube:   tube,
	}
	for i := 0; i < opt.NumCarts; i++ {
		id := track.CartID(i)
		arr, err := opt.Core.Cart.NewArray(opt.RAID, opt.PCIeGen, opt.LanesPerSSD)
		if err != nil {
			return nil, err
		}
		c := &Cart{ID: id, Array: arr, Loc: AtLibrary, spanTrack: cartTrack(id)}
		s.bindLaunchSteps(c)
		s.carts[i] = c
	}
	script := faults.Script{}
	if opt.Faults != nil {
		script = *opt.Faults
		if err := script.Validate(opt.NumCarts, opt.DockStations, opt.Core.Cart.Config.NumSSDs); err != nil {
			return nil, err
		}
	}
	inj, err := faults.NewInjector(s.Engine, faultTarget{s}, script)
	if err != nil {
		return nil, err
	}
	s.inj = inj
	if err := inj.Arm(); err != nil {
		return nil, err
	}
	s.initTelemetry(opt.Telemetry)
	return s, nil
}

// Stats returns a snapshot of the accounting counters.
func (s *System) Stats() Stats { return s.stats }

// Launch returns the per-trip analytical metrics the simulation charges.
func (s *System) Launch() core.LaunchMetrics { return s.launch }

// NumCarts returns the fleet size; cart IDs run 0..NumCarts−1.
func (s *System) NumCarts() int { return len(s.carts) }

// Cart returns the cart state for inspection.
func (s *System) Cart(id track.CartID) (*Cart, error) {
	c, ok := s.cart(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownCart, id)
	}
	return c, nil
}

// cart looks up a fleet cart; ok is false for an ID outside 0..NumCarts−1.
func (s *System) cart(id track.CartID) (c *Cart, ok bool) {
	if id < 0 || int(id) >= len(s.carts) {
		return nil, false
	}
	return s.carts[id], true
}

// oneWayTime decomposes the launch into undock + transit + dock.
func (s *System) transitTime() units.Seconds {
	return s.launch.Time - s.opt.Core.DockTime - s.opt.Core.UndockTime
}

// retryWaiting re-attempts queued requests after any resource release.
func (s *System) retryWaiting() {
	remaining := s.waiting[:0]
	for _, try := range s.waiting {
		if !try() {
			remaining = append(remaining, try)
		}
	}
	s.waiting = remaining
}

func (s *System) enqueue(try func() bool) {
	if try() {
		return
	}
	s.stats.Queued++
	s.tel.queued.Inc()
	s.waiting = append(s.waiting, try)
}

// maybeFailSSD rolls the in-flight failure dice for one launch. The draw
// order (Float64 then Intn) is part of the determinism contract — runs with
// a fixed seed replay identically. The hit routes through the injector so
// stochastic and scripted SSD deaths share one log and taxonomy.
func (s *System) maybeFailSSD(c *Cart) {
	if s.opt.FailureRate <= 0 {
		return
	}
	if s.rng.Float64() < s.opt.FailureRate {
		idx := s.rng.Intn(len(c.Array.Devices))
		s.inj.InjectNow(faults.Fault{Kind: faults.SSDFailure, Cart: c.ID, Device: idx})
	}
}

// launchDirection picks the rail direction for a journey whose natural
// direction is natural: normally natural itself, but when that direction is
// fault-blocked on a dual-rail track the cart can reverse-run over the
// opposite rail if it is free (§VI alternative track designs give each
// direction its own rail, so the hardware permits it). Returns the chosen
// direction and whether this is a reroute; ok=false means no direction is
// currently usable and the request should stay queued.
func (s *System) launchDirection(natural track.Direction) (dir track.Direction, reroute, ok bool) {
	if s.plant.railFree(natural) {
		return natural, false, true
	}
	if s.opt.RailMode == track.DualRail && s.plant.railBlocked(natural) && s.plant.railFree(natural.Opposite()) {
		return natural.Opposite(), true, true
	}
	return natural, false, false
}

// Open requests cart id be shuttled from the library to an endpoint docking
// station (§III-D command 1). done is invoked at completion (or with the
// reason the request was denied outright). Requests that only lack resources
// (rail busy, docks full) wait in FIFO order rather than failing.
func (s *System) Open(id track.CartID, done func(error)) {
	c, ok := s.cart(id)
	if !ok {
		s.deny()
		done(fmt.Errorf("%w: %d", ErrUnknownCart, id))
		return
	}
	if c.Busy {
		s.deny()
		done(fmt.Errorf("%w: cart %d", ErrCartBusy, id))
		return
	}
	if c.Loc != AtLibrary {
		s.deny()
		done(fmt.Errorf("%w: cart %d at %v", ErrNotAtLibrary, id, c.Loc))
		return
	}
	c.Busy = true
	c.scratch.done = done
	c.scratch.reqAt = s.Engine.Now()
	// Resource acquisition and the undock→transit→dock chain run on the
	// cart's pre-bound steps (scratch.go) — no per-launch closures.
	s.enqueue(c.scratch.tryOpen)
}

// runOutbound performs library undock → transit → endpoint dock. dir is the
// rail slot the cart reserved (normally Outbound; Inbound when rerouted
// around a blocked rail on a dual-rail track).
func (s *System) runOutbound(c *Cart, dir track.Direction, done func(error)) {
	c.scratch.dir, c.scratch.done = dir, done
	c.Loc = InTransit
	c.launchStart = s.Engine.Now()
	s.Engine.MustAfter(s.opt.Core.UndockTime, evUndockLibrary, c.scratch.outUndock)
}

// checkLaunchTimeout applies the recovery policy's launch timeout to the
// journey that started at c.launchStart: nil inside the budget, a wrapped
// ErrLaunchTimeout past it. The cart has already arrived either way — the
// plant cannot abort mid-tube — so the error is purely the management
// layer's redelivery signal.
func (s *System) checkLaunchTimeout(c *Cart) error {
	limit := s.opt.Recovery.LaunchTimeout
	if limit <= 0 {
		return nil
	}
	elapsed := s.Engine.Now() - c.launchStart
	if elapsed <= limit {
		return nil
	}
	s.stats.Timeouts++
	s.tel.timeouts.Inc()
	s.tel.spans.RecordInstant(c.trackID, s.tel.ids.timeout, s.Engine.Now(), 0)
	//dhllint:allow allocflow -- timeout breach is a failed run's terminal report, not the steady loop
	return fmt.Errorf("%w: cart %d took %.3fs (budget %.3fs)",
		ErrLaunchTimeout, c.ID, float64(elapsed), float64(limit))
}

// Close requests cart id be undocked and returned to the library (§III-D
// command 2).
func (s *System) Close(id track.CartID, done func(error)) {
	c, ok := s.cart(id)
	if !ok {
		s.deny()
		done(fmt.Errorf("%w: %d", ErrUnknownCart, id))
		return
	}
	if c.Busy {
		s.deny()
		done(fmt.Errorf("%w: cart %d", ErrCartBusy, id))
		return
	}
	if c.Loc != AtDock {
		s.deny()
		done(fmt.Errorf("%w: cart %d at %v", ErrNotDocked, id, c.Loc))
		return
	}
	c.Busy = true
	c.scratch.done = done
	c.scratch.reqAt = s.Engine.Now()
	s.enqueue(c.scratch.tryClose)
}

// runInbound performs endpoint undock → transit → library dock. dir is the
// reserved rail slot (normally Inbound; Outbound when rerouted).
func (s *System) runInbound(c *Cart, dir track.Direction, done func(error)) {
	c.scratch.dir, c.scratch.done = dir, done
	c.launchStart = s.Engine.Now()
	s.Engine.MustAfter(s.opt.Core.UndockTime, evUndockEndpoint, c.scratch.inUndock)
}

// errServiceScheduled is the sentinel maybeServiceConnector uses internally
// to signal that completion was handed to the service event.
var errServiceScheduled = errors.New("dhlsys: connector service scheduled")

// maybeServiceConnector runs the library-side connector checks on a cart
// that just returned: wear-policy preventive replacement, plus forced
// replacement when a dock-station failure damaged the cart's connector
// (needsService). A non-nil return other than errServiceScheduled is a hard
// error; errServiceScheduled means done will be invoked later.
func (s *System) maybeServiceConnector(c *Cart, done func(error)) error {
	forced := c.needsService
	if s.opt.Wear == nil {
		// No wear model to service against; a damaged connector is swapped
		// notionally for free (nothing tracks its cost).
		c.needsService = false
		return nil
	}
	due, err := s.opt.Wear.RecordDock(c.ID)
	if err != nil {
		return err
	}
	if !due && !forced {
		return nil
	}
	// Connector replacement at the library: the cart stays busy for the
	// service downtime.
	cost, downtime, err := s.opt.Wear.Service(c.ID)
	if err != nil {
		return err
	}
	c.needsService = false
	s.stats.ConnectorServices++
	s.stats.MaintenanceTime += downtime
	s.stats.MaintenanceCost += cost
	c.Busy = true
	s.Engine.MustAfter(downtime, evService, func() {
		c.Busy = false
		s.retryWaiting()
		done(nil)
	})
	return errServiceScheduled
}

// Read reads n bytes from a docked cart (§III-D command 3). done receives
// the transfer duration. When the cart's array lost redundancy in flight,
// behaviour follows the recovery policy: under the default policy the read
// is served from the surviving stripes at their reduced bandwidth and done
// receives a wrapped ErrDegradedRead naming the shortfall (§III-D: "RAID
// and backups can ameliorate the issue"); with Recovery.StrictSSD the
// pre-amelioration ErrCartFailed is reported instead.
func (s *System) Read(id track.CartID, n units.Bytes, done func(units.Seconds, error)) {
	s.transferOp(id, n, done, true)
}

// Write writes n bytes to a docked cart (§III-D command 4). Writes to a
// degraded array always fail — there is no redundancy to absorb them.
func (s *System) Write(id track.CartID, n units.Bytes, done func(units.Seconds, error)) {
	s.transferOp(id, n, done, false)
}

func (s *System) transferOp(id track.CartID, n units.Bytes, done func(units.Seconds, error), isRead bool) {
	c, ok := s.cart(id)
	if !ok {
		s.deny()
		done(0, fmt.Errorf("%w: %d", ErrUnknownCart, id))
		return
	}
	if c.Busy {
		s.deny()
		done(0, fmt.Errorf("%w: cart %d", ErrCartBusy, id))
		return
	}
	if c.Loc != AtDock {
		s.deny()
		done(0, fmt.Errorf("%w: cart %d at %v", ErrNotDocked, id, c.Loc))
		return
	}
	var d units.Seconds
	var err error
	if isRead {
		d, err = c.Array.Read(n)
	} else {
		d, err = c.Array.Write(n)
	}
	if err != nil {
		// Health decides before size, as when the health check ran first:
		// a negative size on an array past its redundancy takes the
		// failed-cart branch too.
		if errors.Is(err, storage.ErrDegraded) ||
			(errors.Is(err, storage.ErrNegativeLength) && !c.Array.Healthy()) {
			if !isRead || s.opt.Recovery.StrictSSD {
				s.deny()
				done(0, fmt.Errorf("%w: cart %d", ErrCartFailed, id))
				return
			}
			s.degradedRead(c, n, done)
			return
		}
		s.deny()
		done(0, err)
		return
	}
	c.Busy = true
	name := s.tel.ids.ioWrite
	if isRead {
		s.stats.BytesRead += n
		s.tel.bytesRead.Add(float64(n))
		name = s.tel.ids.ioRead
	} else {
		s.stats.BytesWritten += n
		s.tel.bytesWritten.Add(float64(n))
	}
	c.scratch.ioDone = done
	c.scratch.ioDur = d
	c.scratch.ioStart = s.Engine.Now()
	c.scratch.ioName = name
	s.Engine.MustAfter(d, evIO, c.scratch.ioFinish)
}

// degradedRead serves what survives of an n-byte read on an array past its
// redundancy: the stripes on failed devices are gone, so only the surviving
// fraction of the requested range is returned, at the survivors' aggregate
// bandwidth. done receives the transfer time and a wrapped ErrDegradedRead
// reporting the shortfall.
func (s *System) degradedRead(c *Cart, n units.Bytes, done func(units.Seconds, error)) {
	used := c.Array.Used()
	if n > used {
		s.deny()
		done(0, fmt.Errorf("%w: cart %d holds %v, %v requested", storage.ErrOutOfRange, c.ID, used, n))
		return
	}
	avail := c.Array.AvailablePayload()
	serve := n
	if used > 0 {
		serve = units.Bytes(float64(n) * float64(avail) / float64(used))
	}
	d, err := c.Array.DegradedRead(serve)
	if err != nil {
		s.deny()
		done(0, err)
		return
	}
	c.Busy = true
	s.stats.DegradedReads++
	s.stats.DegradedBytes += serve
	s.stats.BytesRead += serve
	s.tel.degradedReads.Inc()
	s.tel.bytesRead.Add(float64(serve))
	ioStart := s.Engine.Now()
	s.Engine.MustAfter(d, evIODegraded, func() {
		c.Busy = false
		s.tel.ioSeconds.Observe(float64(d))
		s.tel.spans.RecordSpan(c.trackID, s.tel.ids.ioDegr, ioStart, s.Engine.Now(), s.tel.args.degraded)
		done(d, fmt.Errorf("%w: cart %d served %v of %v", ErrDegradedRead, c.ID, serve, n))
	})
}

// Run drains the event queue (bounded) and returns the simulated end time.
func (s *System) Run() (units.Seconds, error) {
	if _, err := s.Engine.Run(50_000_000); err != nil {
		return s.Engine.Now(), err
	}
	return s.Engine.Now(), nil
}
