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
	// RAID level of each cart's array.
	RAID storage.RAIDLevel
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

// FaultDims is the deployment's shape as fault scripts address it: carts,
// endpoint dock stations and SSDs per cart.
func (opt Options) FaultDims() faults.Dims {
	return faults.Dims{Carts: opt.NumCarts, Stations: opt.DockStations, DevicesPerCart: opt.Core.Cart.Config.NumSSDs}
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
	}
}

// The docking interface every cart's array mates through: PCIe 6, one
// lane per SSD.
const (
	pcieGen     = 6
	lanesPerSSD = 1
)

// location is where a cart is.
type location int

const (
	// atLibrary: parked in cold storage.
	atLibrary location = iota
	// inTransit: on the rail.
	inTransit
	// atDock: docked at the endpoint (or mid-dock).
	atDock
)

// String implements fmt.Stringer.
func (l location) String() string {
	switch l {
	case atLibrary:
		return "library"
	case inTransit:
		return "transit"
	case atDock:
		return "dock"
	default:
		return fmt.Sprintf("location(%d)", int(l))
	}
}

// cart is a simulated cart: identity, storage array, and position.
type cart struct {
	ID    track.CartID
	Array *storage.Array
	Loc   location
	// Busy marks a cart with an in-flight operation (launch, return, IO).
	Busy bool

	// transitEv is the pending rail-transit arrival (the leg's transit
	// event, firing the arrival step), which a stall fault pushes out.
	transitEv sim.Handle
	// trackID is the interned span-log ID of the cart's telemetry track
	// ("cart-N"), bound in initTelemetry (zero when telemetry is disabled
	// — harmless, records on a nil log are no-ops).
	trackID telemetry.StrID
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
	// Queued counts waits for a resource: a launch that cannot yet have
	// its LIM, dock bank or rail, and an arrived cart that finds no free
	// station at the endpoint (one free at launch may fail in flight).
	// One Open can count twice.
	Queued int
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
	carts  []*cart // indexed by CartID: New assigns IDs 0..NumCarts−1
	rng    *rand.Rand
	stats  Stats

	// Fault-injection state.
	inj   *faults.Injector
	leaks []float64 // active leak pressures, Pa (max governs)
	// limDown counts active power-loss faults per launch direction
	// (index 0 = outbound LIM at the library, 1 = inbound at the endpoint).
	limDown [2]int

	// waiting holds the carts whose launch or dock lacked resources
	// (FIFO): Open and Close launches, and arrived carts awaiting a free
	// endpoint station. tryStep retries each.
	waiting []*cart

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
	if !(opt.FailureRate >= 0 && opt.FailureRate <= 1) { // NaN fails too
		return nil, fmt.Errorf("dhlsys: failure rate must be in [0,1], got %v", opt.FailureRate)
	}
	l, err := core.Launch(opt.Core)
	if err != nil {
		return nil, err
	}
	if opt.DockStations < 1 {
		return nil, errors.New("dhlsys: dock bank needs ≥1 station")
	}
	s := &System{
		Engine: sim.New(),
		opt:    opt,
		launch: l,
		plant:  newPlant(opt.RailMode, opt.DockStations),
		carts:  make([]*cart, opt.NumCarts),
		rng:    rand.New(rand.NewSource(opt.Seed)),
	}
	for i := 0; i < opt.NumCarts; i++ {
		id := track.CartID(i)
		arr, err := opt.Core.Cart.NewArray(opt.RAID, pcieGen, lanesPerSSD)
		if err != nil {
			return nil, err
		}
		c := &cart{ID: id, Array: arr, Loc: atLibrary}
		s.bindLaunchSteps(c)
		s.carts[i] = c
	}
	script := faults.Script{}
	if opt.Faults != nil {
		script = *opt.Faults
		if err := script.ValidateDims(opt.FaultDims()); err != nil {
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

// NumCarts returns the fleet size; cart IDs run 0..NumCarts−1.
func (s *System) NumCarts() int { return len(s.carts) }

// cart looks up a fleet cart; ok is false for an ID outside 0..NumCarts−1.
func (s *System) cart(id track.CartID) (c *cart, ok bool) {
	if id < 0 || int(id) >= len(s.carts) {
		return nil, false
	}
	return s.carts[id], true
}

// transitTime is the rail part of the launch: the launch time less the
// undock and dock times.
func (s *System) transitTime() units.Seconds {
	return s.launch.Time - s.opt.Core.DockTime - s.opt.Core.UndockTime
}

// retryWaiting re-attempts queued requests after any resource release.
func (s *System) retryWaiting() {
	remaining := s.waiting[:0]
	for _, c := range s.waiting {
		if !s.tryStep(c) {
			remaining = append(remaining, c)
		}
	}
	s.waiting = remaining
}

// enqueue attempts the cart's waiting step and queues the cart if it
// lacks resources.
func (s *System) enqueue(c *cart) {
	if s.tryStep(c) {
		return
	}
	s.stats.Queued++
	s.waiting = append(s.waiting, c)
}

// maybeFailSSD rolls the in-flight failure dice for one launch. The draw
// order (Float64 then Intn) is part of the determinism contract — runs with
// a fixed seed replay identically. The hit routes through the injector so
// stochastic and scripted SSD deaths share one log and taxonomy.
func (s *System) maybeFailSSD(c *cart) {
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

// gate is the request check every API op passes: the cart exists, has no
// operation in flight, and is at want. A refused request is counted as
// denied and its error returned.
func (s *System) gate(id track.CartID, want location) (*cart, error) {
	c, ok := s.cart(id)
	var err error
	switch {
	case !ok:
		err = fmt.Errorf("%w: %d", ErrUnknownCart, id)
	case c.Busy:
		err = fmt.Errorf("%w: cart %d", ErrCartBusy, id)
	case c.Loc != want && want == atLibrary:
		err = fmt.Errorf("%w: cart %d at %v", ErrNotAtLibrary, id, c.Loc)
	case c.Loc != want:
		err = fmt.Errorf("%w: cart %d at %v", ErrNotDocked, id, c.Loc)
	default:
		return c, nil
	}
	s.deny()
	return nil, err
}

// Open requests cart id be shuttled from the library to an endpoint docking
// station (§III-D command 1). done is invoked at completion (or with the
// reason the request was denied outright). Requests that only lack resources
// (rail busy, docks full) wait in FIFO order rather than failing.
func (s *System) Open(id track.CartID, done func(error)) {
	s.startLeg(id, &legs[track.Outbound], done)
}

// Close requests cart id be undocked and returned to the library (§III-D
// command 2).
func (s *System) Close(id track.CartID, done func(error)) {
	s.startLeg(id, &legs[track.Inbound], done)
}

// startLeg gates a launch request and queues its resource acquisition;
// the undock→transit→dock chain then runs on the cart's pre-bound steps
// (scratch.go) — no per-launch closures.
func (s *System) startLeg(id track.CartID, l *launchLeg, done func(error)) {
	c, err := s.gate(id, l.from)
	if err != nil {
		done(err)
		return
	}
	c.Busy = true
	sc := &c.scratch
	sc.leg, sc.done, sc.reqAt = l, done, s.Engine.Now()
	s.enqueue(c)
}

// checkLaunchTimeout applies the recovery policy's launch timeout to the
// journey that started at the cart's launchStart: nil inside the budget, a
// wrapped ErrLaunchTimeout past it. The cart has already arrived either
// way — the plant cannot abort mid-tube — so the error is purely the
// management layer's redelivery signal.
func (s *System) checkLaunchTimeout(c *cart) error {
	limit := s.opt.Recovery.LaunchTimeout
	if limit <= 0 {
		return nil
	}
	elapsed := s.Engine.Now() - c.scratch.launchStart
	if elapsed <= limit {
		return nil
	}
	s.stats.Timeouts++
	s.tel.spans.RecordInstant(c.trackID, s.tel.ids.timeout, s.Engine.Now(), 0)
	//dhllint:allow allocflow -- timeout breach is a failed run's terminal report, not the steady loop
	return fmt.Errorf("%w: cart %d took %.3fs (budget %.3fs)",
		ErrLaunchTimeout, c.ID, float64(elapsed), float64(limit))
}

// errServiceScheduled is the sentinel serviceAtLibrary uses internally to
// signal that completion was handed to the service event.
var errServiceScheduled = errors.New("dhlsys: connector service scheduled")

// serviceAtLibrary services a cart that just returned to the library.
// Failed SSDs are repaired (§III-B.6) and, with autoReload, each device is
// topped up: only serviced (emptied) SSDs need reloading; the rest are
// already full. Then the connector checks run: wear-policy preventive
// replacement, plus forced replacement when a dock-station failure damaged
// the cart's connector (needsService). A non-nil return other than
// errServiceScheduled is a hard error; errServiceScheduled means done will
// be invoked later.
func (s *System) serviceAtLibrary(c *cart, done func(error)) error {
	for _, d := range c.Array.Devices {
		if d.Failed() {
			d.Repair()
		}
		if !s.autoReload {
			continue
		}
		if free := d.Free(); free > 0 {
			if _, err := d.Write(free); err != nil {
				return fmt.Errorf("dhlsys: reload cart %d: %w", c.ID, err)
			}
		}
	}
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
	c, err := s.gate(id, atDock)
	if err != nil {
		done(0, err)
		return
	}
	var d units.Seconds
	if isRead {
		d, err = c.Array.Read(n)
	} else {
		d, err = c.Array.Write(n)
	}
	// Health decides before size, as when the health check ran first: a
	// negative size on an array past its redundancy takes the failed-cart
	// branch too.
	failed := err != nil && (errors.Is(err, storage.ErrDegraded) ||
		errors.Is(err, storage.ErrNegativeLength) && !c.Array.Healthy())
	sc := &c.scratch
	sc.ioName, sc.ioArgs, sc.ioErr = s.tel.ids.ioWrite, 0, nil
	ev := evIO
	switch {
	case err == nil && isRead:
		s.stats.BytesRead += n
		sc.ioName = s.tel.ids.ioRead
	case err == nil:
		s.stats.BytesWritten += n
	case failed && (!isRead || s.opt.Recovery.StrictSSD):
		err = fmt.Errorf("%w: cart %d", ErrCartFailed, id)
	case failed:
		d, err = s.degradedRead(c, n)
		ev = evIODegraded
	}
	if err != nil {
		s.deny()
		done(0, err)
		return
	}
	c.Busy = true
	sc.ioDone, sc.ioDur, sc.ioStart = done, d, s.Engine.Now()
	s.Engine.MustAfter(d, ev, sc.ioFinish)
}

// degradedRead serves what survives of an n-byte read on an array past its
// redundancy: the stripes on failed devices are gone, so only the surviving
// fraction of the requested range is returned, at the survivors' aggregate
// bandwidth. It returns the transfer time and sets the cart's IO scratch so
// the finish step reports a wrapped ErrDegradedRead naming the shortfall.
func (s *System) degradedRead(c *cart, n units.Bytes) (units.Seconds, error) {
	used := c.Array.Used()
	if n > used {
		return 0, fmt.Errorf("%w: cart %d holds %v, %v requested", storage.ErrOutOfRange, c.ID, used, n)
	}
	avail := c.Array.AvailablePayload()
	serve := n
	if used > 0 {
		serve = units.Bytes(float64(n) * float64(avail) / float64(used))
	}
	d, err := c.Array.DegradedRead(serve)
	if err != nil {
		return 0, err
	}
	s.stats.DegradedReads++
	s.stats.DegradedBytes += serve
	s.stats.BytesRead += serve
	sc := &c.scratch
	sc.ioName, sc.ioArgs = s.tel.ids.ioDegr, s.tel.args.degraded
	sc.ioErr = fmt.Errorf("%w: cart %d served %v of %v", ErrDegradedRead, c.ID, serve, n)
	return d, nil
}

// Run drains the event queue (bounded) and returns the simulated end time.
func (s *System) Run() (units.Seconds, error) {
	if _, err := s.Engine.Run(50_000_000); err != nil {
		return s.Engine.Now(), err
	}
	return s.Engine.Now(), nil
}
