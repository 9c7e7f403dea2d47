package dhlsys

import (
	"errors"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/units"
)

// launchScratch is a cart's reusable in-flight operation state plus the
// operation lifecycle's pre-bound step closures. A cart runs at most one
// operation at a time (cart.Busy), so one scratch per cart holds what a
// per-operation closure chain would capture: the steps below are bound
// once at construction, and Open/Close/Read/Write allocate nothing.
//
// Re-entrancy rule: a step that invokes a caller callback (done/ioDone)
// must copy the field to a local and clear it first — the callback may
// immediately start the cart's next operation, which rewrites the
// scratch (the bulk-transfer driver chains Open→Read→Close this way).
type launchScratch struct {
	// Per-launch state (valid while cart.Busy).
	leg         *launchLeg
	dir         track.Direction // the rail slot reserved (leg.natural unless rerouted)
	done        func(error)
	dyn         launchDynamics
	reqAt       units.Seconds
	launchStart units.Seconds // resources acquired (launch-timeout accounting)
	depart      units.Seconds
	arrivedAt   units.Seconds
	dockStart   units.Seconds
	// IO-operation state (an IO never overlaps a launch on one cart).
	ioDone  func(units.Seconds, error)
	ioDur   units.Seconds
	ioStart units.Seconds
	ioName  telemetry.StrID // interned io-read/io-write/io-degraded span name
	ioArgs  telemetry.ArgID // degraded=true on a degraded read, else none
	ioErr   error           // reported with the duration (ErrDegradedRead)

	// Pre-bound event steps, allocated once per cart. A launch or dock
	// that waits for resources is retried by cart (System.tryStep).
	undock   func()
	arrive   func()
	dock     func()
	ioFinish func()
}

// launchLeg is what differs between the two launches: Open flies the
// outbound leg from the library to the endpoint, Close the inbound leg
// back. Both run the same chain of steps below — try, undock, transit,
// arrive, dock — and branch only where the endpoint's dock bank is
// involved, at the leg's from (undock) or to (dock) end.
type launchLeg struct {
	natural  track.Direction
	from, to location // atLibrary or atDock
	// Event names (names.go); trace consumers classify events by them.
	evUndock, evTransit, evDock string
}

// legs holds the two launch legs, indexed by natural direction.
var legs = [2]launchLeg{
	track.Outbound: {track.Outbound, atLibrary, atDock, evUndockLibrary, evTransitOut, evDockEndpoint},
	track.Inbound:  {track.Inbound, atDock, atLibrary, evUndockEndpoint, evTransitIn, evDockLibrary},
}

// bindLaunchSteps allocates the cart's step closures; called once per
// cart at system construction.
func (s *System) bindLaunchSteps(c *cart) {
	sc := &c.scratch
	sc.undock = func() { s.undockStep(c) }
	sc.arrive = func() { s.arriveStep(c) }
	sc.dock = func() { s.dockStep(c) }
	sc.ioFinish = func() { s.ioFinishStep(c) }
}

// tryStep attempts the step the cart waits on: the dock of an arrived
// cart, which is still on the rail, or else its launch.
//
//dhllint:hotpath
func (s *System) tryStep(c *cart) bool {
	if c.Loc == inTransit {
		return s.tryDockStep(c)
	}
	return s.tryLaunchStep(c)
}

// tryLaunchStep acquires a launch's resources: the leg's LIM energised,
// the dock bank passable (a free in-service station with no mid-dock cart
// to dock into, or no mid-dock cart to undock past), and a usable rail
// direction. It then begins the undock: an endpoint undock holds the bank
// as the mid-dock cart, a library undock puts the cart on the rail.
//
//dhllint:hotpath
func (s *System) tryLaunchStep(c *cart) bool {
	sc := &c.scratch
	l := sc.leg
	if !s.limUp(l.natural) {
		return false
	}
	if l.to == atDock && s.plant.dockable() < 0 || l.from == atDock && s.plant.midDock != track.NoCart {
		return false
	}
	dir, reroute, ok := s.launchDirection(l.natural)
	if !ok {
		return false
	}
	s.plant.reserve(c.ID, dir)
	if reroute {
		s.markReroute(c, dir)
	}
	if l.from == atDock {
		s.plant.midDock = c.ID
	} else {
		c.Loc = inTransit
	}
	s.recordQueueWait(c, s.tel.args.op[l.natural], sc.reqAt)
	sc.dir = dir
	sc.launchStart = s.Engine.Now()
	s.Engine.MustAfter(s.opt.Core.UndockTime, l.evUndock, sc.undock)
	return true
}

// undockStep completes the undock and puts the cart into transit.
//
//dhllint:hotpath
func (s *System) undockStep(c *cart) {
	sc := &c.scratch
	l := sc.leg
	if l.from == atDock {
		s.plant.endUndock(c.ID)
	}
	c.Loc = inTransit
	s.stats.DockOps++
	s.tel.spans.RecordSpan(c.trackID, s.tel.ids.undock, sc.launchStart, s.Engine.Now(), s.tel.args.site[l.from])
	//dhllint:allow allocflow -- fault injection schedules a repair closure; faults are off the steady path by definition
	s.maybeFailSSD(c)
	sc.dyn = s.dynamics()
	if sc.dyn.degraded {
		s.stats.DegradedLaunches++
	}
	sc.depart = s.Engine.Now()
	c.transitEv = s.Engine.MustAfter(sc.dyn.transit, l.evTransit, sc.arrive)
}

// arriveStep fires at the far end of the transit and queues the dock.
//
//dhllint:hotpath
func (s *System) arriveStep(c *cart) {
	sc := &c.scratch
	c.transitEv = sim.Handle{}
	s.recordTransit(c, sc.depart, s.Engine.Now(), sc.dyn, sc.dir)
	sc.arrivedAt = s.Engine.Now()
	s.enqueue(c)
}

// tryDockStep starts the dock of an arrived cart. The library always takes
// it; at the endpoint it needs a station, and one free at launch may have
// failed in flight, so the cart loiters at the bank (holding its rail
// slot) until a station is repaired or freed.
//
//dhllint:hotpath
func (s *System) tryDockStep(c *cart) bool {
	sc := &c.scratch
	if sc.leg.to == atDock {
		station := s.plant.dockable()
		if station < 0 {
			return false
		}
		s.plant.beginDock(c.ID, station)
	}
	if s.tel.spans != nil && sc.arrivedAt < s.Engine.Now() {
		s.tel.spans.RecordSpan(c.trackID, s.tel.ids.loiter, sc.arrivedAt, s.Engine.Now(), 0)
	}
	sc.dockStart = s.Engine.Now()
	s.Engine.MustAfter(s.opt.Core.DockTime, sc.leg.evDock, sc.dock)
	return true
}

// dockStep completes the dock and the launch, runs the arrival work —
// the endpoint's wear count, or the library's repair, reload and
// connector service — and reports to the caller.
//
//dhllint:hotpath
func (s *System) dockStep(c *cart) {
	sc := &c.scratch
	l := sc.leg
	s.stats.DockOps++
	s.tel.spans.RecordSpan(c.trackID, s.tel.ids.dock, sc.dockStart, s.Engine.Now(), s.tel.args.site[l.to])
	s.recordLaunch(c, sc.dyn)
	s.plant.release(sc.dir)
	c.Loc = l.to
	c.Busy = false
	done := sc.done
	sc.done = nil
	var err error
	if l.to == atDock {
		s.plant.endDock()
		if s.opt.Wear != nil {
			// Endpoint mating cycle; service is deferred to the library
			// (§III-B.6).
			_, err = s.opt.Wear.RecordDock(c.ID)
		}
	} else {
		//dhllint:allow allocflow -- repair and connector service are library maintenance: a reload error or a deferred-completion closure, off the steady loop
		err = s.serviceAtLibrary(c, done)
	}
	if err != nil {
		// On errServiceScheduled, done fires when the service completes.
		if !errors.Is(err, errServiceScheduled) {
			done(err)
		}
		return
	}
	s.retryWaiting()
	done(s.checkLaunchTimeout(c))
}

// ioFinishStep completes a Read/Write transfer, healthy or degraded.
//
//dhllint:hotpath
func (s *System) ioFinishStep(c *cart) {
	sc := &c.scratch
	c.Busy = false
	d := sc.ioDur
	s.tel.ioSeconds.Observe(float64(d))
	s.tel.spans.RecordSpan(c.trackID, sc.ioName, sc.ioStart, s.Engine.Now(), sc.ioArgs)
	done, err := sc.ioDone, sc.ioErr
	sc.ioDone, sc.ioErr = nil, nil
	done(d, err)
}
