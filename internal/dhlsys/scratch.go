package dhlsys

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/units"
)

// launchScratch is a cart's reusable in-flight operation state plus the
// launch chain's pre-bound step closures. A cart runs at most one
// operation at a time (Cart.Busy), so one scratch per cart replaces the
// per-launch closure chain Open/Close/Read/Write used to allocate: the
// steps below are bound once at construction and the per-launch state
// they need travels through these fields instead of closure captures.
//
// Re-entrancy rule: a step that invokes a caller callback (done/ioDone)
// must copy the field to a local and clear it first — the callback may
// immediately start the cart's next operation, which rewrites the
// scratch (the bulk-transfer driver chains Open→Read→Close this way).
type launchScratch struct {
	// Per-operation state (valid while Cart.Busy).
	dir       track.Direction
	done      func(error)
	dyn       launchDynamics
	reqAt     units.Seconds
	depart    units.Seconds
	arrive    units.Seconds
	dockStart units.Seconds
	// IO-operation state (an IO never overlaps a launch on one cart).
	ioDone  func(units.Seconds, error)
	ioDur   units.Seconds
	ioStart units.Seconds
	ioName  telemetry.StrID // interned io-read/io-write span name

	// Pre-bound steps, allocated once per cart.
	tryOpen    func() bool
	tryClose   func() bool
	outUndock  func()
	outArrive  func()
	outTryDock func() bool
	outDock    func()
	inUndock   func()
	inArrive   func()
	inDock     func()
	ioFinish   func()
}

// bindLaunchSteps allocates the cart's step closures; called once per
// cart at system construction.
func (s *System) bindLaunchSteps(c *Cart) {
	sc := &c.scratch
	sc.tryOpen = func() bool { return s.tryOpenStep(c) }
	sc.tryClose = func() bool { return s.tryCloseStep(c) }
	sc.outUndock = func() { s.outUndockStep(c) }
	sc.outArrive = func() { s.outArriveStep(c) }
	sc.outTryDock = func() bool { return s.outTryDockStep(c) }
	sc.outDock = func() { s.outDockStep(c) }
	sc.inUndock = func() { s.inUndockStep(c) }
	sc.inArrive = func() { s.inArriveStep(c) }
	sc.inDock = func() { s.inDockStep(c) }
	sc.ioFinish = func() { s.ioFinishStep(c) }
}

// tryOpenStep acquires the outbound launch resources: the outbound LIM
// energised, a usable rail direction, and a free in-service station with
// no mid-dock cart.
//
//dhllint:hotpath
func (s *System) tryOpenStep(c *Cart) bool {
	sc := &c.scratch
	if !s.limUp(track.Outbound) || s.plant.dockable() < 0 {
		return false
	}
	dir, reroute, ok := s.launchDirection(track.Outbound)
	if !ok {
		return false
	}
	s.plant.reserve(c.ID, dir)
	if reroute {
		s.markReroute(c, dir)
	}
	s.recordQueueWait(c, s.tel.args.open, sc.reqAt)
	s.runOutbound(c, dir, sc.done)
	return true
}

// outUndockStep completes the library-side undock of an outbound launch.
//
//dhllint:hotpath
func (s *System) outUndockStep(c *Cart) {
	sc := &c.scratch
	s.stats.DockOps++
	s.tel.dockOps.Inc()
	s.tel.spans.RecordSpan(c.trackID, s.tel.ids.undock, c.launchStart, s.Engine.Now(), s.tel.args.library)
	//dhllint:allow allocflow -- fault injection schedules a repair closure; faults are off the steady path by definition
	s.maybeFailSSD(c)
	sc.dyn = s.dynamics()
	if sc.dyn.degraded {
		s.stats.DegradedLaunches++
		s.tel.degradedLaunches.Inc()
	}
	sc.depart = s.Engine.Now()
	s.scheduleTransit(c, sc.dyn.transit, evTransitOut, sc.dir, sc.outArrive)
}

// outArriveStep fires at the endpoint end of the outbound transit. A
// station free at reservation time may have failed in flight; the cart
// loiters at the bank (holding its rail slot) until a station is repaired
// or freed.
//
//dhllint:hotpath
func (s *System) outArriveStep(c *Cart) {
	sc := &c.scratch
	c.transitEv, c.transitFn = sim.Handle{}, nil
	s.recordTransit(c, sc.depart, s.Engine.Now(), sc.dyn, sc.dir)
	sc.arrive = s.Engine.Now()
	s.enqueue(sc.outTryDock)
}

// outTryDockStep claims a docking station for an arrived outbound cart.
//
//dhllint:hotpath
func (s *System) outTryDockStep(c *Cart) bool {
	sc := &c.scratch
	station := s.plant.dockable()
	if station < 0 {
		return false
	}
	s.plant.beginDock(c.ID, station)
	if s.tel.spans != nil && sc.arrive < s.Engine.Now() {
		s.tel.spans.RecordSpan(c.trackID, s.tel.ids.loiter, sc.arrive, s.Engine.Now(), 0)
	}
	sc.dockStart = s.Engine.Now()
	s.Engine.MustAfter(s.opt.Core.DockTime, evDockEndpoint, sc.outDock)
	return true
}

// outDockStep completes the endpoint dock and the outbound launch.
//
//dhllint:hotpath
func (s *System) outDockStep(c *Cart) {
	sc := &c.scratch
	s.plant.endDock()
	s.stats.DockOps++
	s.tel.dockOps.Inc()
	s.tel.spans.RecordSpan(c.trackID, s.tel.ids.dock, sc.dockStart, s.Engine.Now(), s.tel.args.endpoint)
	if s.opt.Wear != nil {
		// Endpoint mating cycle; service is deferred to the library
		// (§III-B.6).
		if _, err := s.opt.Wear.RecordDock(c.ID); err != nil {
			panic(err)
		}
	}
	s.recordLaunch(c, sc.dyn)
	s.plant.release(sc.dir)
	c.Loc = AtDock
	c.Busy = false
	done := sc.done
	sc.done = nil
	s.retryWaiting()
	done(s.checkLaunchTimeout(c))
}

// tryCloseStep acquires the inbound return resources.
//
//dhllint:hotpath
func (s *System) tryCloseStep(c *Cart) bool {
	sc := &c.scratch
	if !s.limUp(track.Inbound) || s.plant.midDock != track.NoCart {
		return false
	}
	dir, reroute, ok := s.launchDirection(track.Inbound)
	if !ok {
		return false
	}
	s.plant.reserve(c.ID, dir)
	if reroute {
		s.markReroute(c, dir)
	}
	s.plant.midDock = c.ID // begin the undock
	s.recordQueueWait(c, s.tel.args.close, sc.reqAt)
	s.runInbound(c, dir, sc.done)
	return true
}

// inUndockStep completes the endpoint-side undock of an inbound return.
//
//dhllint:hotpath
func (s *System) inUndockStep(c *Cart) {
	sc := &c.scratch
	s.plant.endUndock(c.ID)
	s.stats.DockOps++
	s.tel.dockOps.Inc()
	s.tel.spans.RecordSpan(c.trackID, s.tel.ids.undock, c.launchStart, s.Engine.Now(), s.tel.args.endpoint)
	c.Loc = InTransit
	//dhllint:allow allocflow -- fault injection schedules a repair closure; faults are off the steady path by definition
	s.maybeFailSSD(c)
	sc.dyn = s.dynamics()
	if sc.dyn.degraded {
		s.stats.DegradedLaunches++
		s.tel.degradedLaunches.Inc()
	}
	sc.depart = s.Engine.Now()
	s.scheduleTransit(c, sc.dyn.transit, evTransitIn, sc.dir, sc.inArrive)
}

// inArriveStep fires at the library end of the inbound transit.
//
//dhllint:hotpath
func (s *System) inArriveStep(c *Cart) {
	sc := &c.scratch
	c.transitEv, c.transitFn = sim.Handle{}, nil
	s.recordTransit(c, sc.depart, s.Engine.Now(), sc.dyn, sc.dir)
	sc.dockStart = s.Engine.Now()
	s.Engine.MustAfter(s.opt.Core.DockTime, evDockLibrary, sc.inDock)
}

// inDockStep completes the library dock, services the cart, and finishes
// the inbound return.
//
//dhllint:hotpath
func (s *System) inDockStep(c *Cart) {
	sc := &c.scratch
	s.stats.DockOps++
	s.tel.dockOps.Inc()
	s.tel.spans.RecordSpan(c.trackID, s.tel.ids.dock, sc.dockStart, s.Engine.Now(), s.tel.args.library)
	s.recordLaunch(c, sc.dyn)
	s.plant.release(sc.dir)
	done := sc.done
	sc.done = nil
	c.Loc = AtLibrary
	c.Busy = false
	// Failed SSDs are serviced at the library (§III-B.6). With autoReload
	// each device is then topped up: only serviced (emptied) SSDs need
	// reloading; the rest are already full.
	for _, d := range c.Array.Devices {
		if d.Failed() {
			d.Repair()
		}
		if !s.autoReload {
			continue
		}
		if free := d.Free(); free > 0 {
			if _, err := d.Write(free); err != nil {
				//dhllint:allow allocflow -- reload failure aborts the cycle; the wrap only fires on a broken device
				done(fmt.Errorf("dhlsys: reload cart %d: %w", c.ID, err))
				return
			}
		}
	}
	//dhllint:allow allocflow -- connector service is scheduled maintenance: a deferred-completion closure, off the steady loop
	switch err := s.maybeServiceConnector(c, done); {
	case errors.Is(err, errServiceScheduled):
		return // done fires when the service completes
	case err != nil:
		done(err)
		return
	}
	s.retryWaiting()
	done(s.checkLaunchTimeout(c))
}

// ioFinishStep completes a healthy-array Read/Write transfer.
//
//dhllint:hotpath
func (s *System) ioFinishStep(c *Cart) {
	sc := &c.scratch
	c.Busy = false
	d := sc.ioDur
	s.tel.ioSeconds.Observe(float64(d))
	s.tel.spans.RecordSpan(c.trackID, sc.ioName, sc.ioStart, s.Engine.Now(), 0)
	done := sc.ioDone
	sc.ioDone = nil
	done(d, nil)
}
