package dhlsys

import (
	"strconv"

	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/units"
)

// This file wires the simulation to internal/telemetry. Instrumentation is
// strictly optional: with Options.Telemetry nil every handle below is nil
// and every hook is a no-op, so an uninstrumented run pays one nil check
// per site (the budget BENCH_kernel.json tracks).

// Histogram bucket layouts, in seconds. Fixed at construction so every run
// of a configuration shares one schema.
var (
	launchBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
	ioBuckets     = []float64{0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000}
	waitBuckets   = []float64{0.1, 1, 5, 10, 50, 100, 500, 1000, 5000}
)

// telemetryHooks are the precomputed metric handles the hot paths touch.
// The zero value (all nil) is the disabled state.
type telemetryHooks struct {
	spans *telemetry.SpanLog

	launches         *telemetry.Counter
	degradedLaunches *telemetry.Counter
	dockOps          *telemetry.Counter
	deliveries       *telemetry.Counter
	retries          *telemetry.Counter
	timeouts         *telemetry.Counter
	backoffs         *telemetry.Counter
	stalls           *telemetry.Counter
	reroutes         *telemetry.Counter
	denied           *telemetry.Counter
	queued           *telemetry.Counter
	degradedReads    *telemetry.Counter
	energyJ          *telemetry.Counter
	bytesRead        *telemetry.Counter
	bytesWritten     *telemetry.Counter

	launchSeconds *telemetry.Histogram
	ioSeconds     *telemetry.Histogram
	waitSeconds   *telemetry.Histogram

	simTime   *telemetry.Gauge
	simEvents *telemetry.Counter

	// ids are the span-log string IDs for the fixed name vocabulary
	// (names.go), interned once here so every record site is an ID-based
	// RecordSpan/RecordInstant — no per-record intern lookup. Zero-valued
	// when telemetry is disabled, which is harmless: records on a nil log
	// are no-ops.
	ids spanIDs
	// args are the interned annotation sets, likewise fixed at
	// construction, so an annotated record stores one ArgID.
	args spanArgs
}

// spanIDs holds the interned IDs of the dhlsys span/instant vocabulary.
type spanIDs struct {
	undock, dock, transit   telemetry.StrID
	accel, cruise, brake    telemetry.StrID
	loiter, enqueue         telemetry.StrID
	ioRead, ioWrite, ioDegr telemetry.StrID
	stall, reroute, timeout telemetry.StrID
}

// spanArgs holds the interned IDs of the dhlsys annotation sets.
type spanArgs struct {
	library, endpoint telemetry.ArgID    // site=library, site=endpoint
	dir               [2]telemetry.ArgID // dir=<track.Direction>
	dirDegraded       [2]telemetry.ArgID // dir=<track.Direction>, degraded=true
	open, close       telemetry.ArgID    // op=open, op=close
	degraded          telemetry.ArgID    // degraded=true
}

// initTelemetry binds the system (and its plant, injector, and engine) to
// the telemetry set. A nil set leaves every hook nil — the disabled state.
func (s *System) initTelemetry(set *telemetry.Set) {
	s.telSet = set
	reg := set.MetricsOf()
	s.tel = telemetryHooks{
		spans:            set.SpansOf(),
		launches:         reg.Counter("dhl_launches_total"),
		degradedLaunches: reg.Counter("dhl_degraded_launches_total"),
		dockOps:          reg.Counter("dhl_dock_ops_total"),
		deliveries:       reg.Counter("dhl_deliveries_total"),
		retries:          reg.Counter("dhl_retries_total"),
		timeouts:         reg.Counter("dhl_launch_timeouts_total"),
		backoffs:         reg.Counter("dhl_backoffs_total"),
		stalls:           reg.Counter("dhl_stalls_total"),
		reroutes:         reg.Counter("dhl_reroutes_total"),
		denied:           reg.Counter("dhl_api_denied_total"),
		queued:           reg.Counter("dhl_api_queued_total"),
		degradedReads:    reg.Counter("dhl_degraded_reads_total"),
		energyJ:          reg.Counter("dhl_launch_energy_joules_total"),
		bytesRead:        reg.Counter("dhl_bytes_read_total"),
		bytesWritten:     reg.Counter("dhl_bytes_written_total"),
		launchSeconds:    reg.Histogram("dhl_launch_seconds", launchBuckets),
		ioSeconds:        reg.Histogram("dhl_io_seconds", ioBuckets),
		waitSeconds:      reg.Histogram("dhl_queue_wait_seconds", waitBuckets),
		simTime:          reg.Gauge("dhl_sim_time_seconds"),
		simEvents:        reg.Counter("dhl_sim_events_total"),
	}
	if set == nil {
		return
	}
	sp := s.tel.spans
	s.tel.ids = spanIDs{
		undock: sp.Intern(spanUndock), dock: sp.Intern(spanDock),
		transit: sp.Intern(spanTransit), accel: sp.Intern(spanAccel),
		cruise: sp.Intern(spanCruise), brake: sp.Intern(spanBrake),
		loiter: sp.Intern(spanLoiter), enqueue: sp.Intern(spanEnqueue),
		ioRead: sp.Intern(spanIORead), ioWrite: sp.Intern(spanIOWrite),
		ioDegr: sp.Intern(spanIODegr), stall: sp.Intern(markStall),
		reroute: sp.Intern(markReroute), timeout: sp.Intern(markTimeout),
	}
	degraded := telemetry.KV{Key: "degraded", Value: "true"}
	s.tel.args = spanArgs{
		library:  sp.InternArgs(telemetry.KV{Key: "site", Value: "library"}),
		endpoint: sp.InternArgs(telemetry.KV{Key: "site", Value: "endpoint"}),
		open:     sp.InternArgs(telemetry.KV{Key: "op", Value: "open"}),
		close:    sp.InternArgs(telemetry.KV{Key: "op", Value: "close"}),
		degraded: sp.InternArgs(degraded),
	}
	for _, d := range []track.Direction{track.Outbound, track.Inbound} {
		dir := telemetry.KV{Key: "dir", Value: d.String()}
		s.tel.args.dir[d] = sp.InternArgs(dir)
		s.tel.args.dirDegraded[d] = sp.InternArgs(dir, degraded)
	}
	for _, c := range s.carts {
		c.trackID = sp.Intern(c.spanTrack)
	}
	s.plant.instrument(reg)
	s.inj.SetTelemetry(set)
}

// Telemetry returns the system's telemetry set (nil when disabled).
func (s *System) Telemetry() *telemetry.Set { return s.telSet }

// MetricsSnapshot refreshes the derived metrics — the sim-time gauge and
// the event counter, which syncs from the engine's processed count here
// rather than paying a tracer callback per event — and snapshots the
// registry. The zero snapshot is returned when telemetry is disabled.
// Direct Registry.Snapshot calls bypass this refresh and see the derived
// metrics as of the previous MetricsSnapshot.
func (s *System) MetricsSnapshot() telemetry.Snapshot {
	var snap telemetry.Snapshot
	s.MetricsSnapshotInto(&snap)
	return snap
}

// MetricsSnapshotInto is MetricsSnapshot writing into dst, reusing its
// slices (see telemetry.Registry.SnapshotInto).
//
//dhllint:hotpath
func (s *System) MetricsSnapshotInto(dst *telemetry.Snapshot) {
	s.tel.simTime.Set(float64(s.Engine.Now()))
	s.tel.simEvents.Add(float64(s.Engine.Processed()) - s.tel.simEvents.Value())
	s.telSet.MetricsOf().SnapshotInto(dst)
}

// deny accounts one immediately-failed API request.
func (s *System) deny() {
	s.stats.Denied++
	s.tel.denied.Inc()
}

// cartTrack names a cart's span track.
func cartTrack(id track.CartID) string { return "cart-" + strconv.Itoa(int(id)) }

// recordLaunch accounts one completed one-way trip: the Stats counters,
// the telemetry counters, and the undock-to-dock duration histogram.
func (s *System) recordLaunch(c *Cart, dyn launchDynamics) {
	s.stats.Launches++
	s.stats.Energy += dyn.energy
	s.tel.launches.Inc()
	s.tel.energyJ.Add(float64(dyn.energy))
	s.tel.launchSeconds.Observe(float64(s.Engine.Now() - c.launchStart))
}

// markReroute accounts a launch reverse-running over the opposite rail of
// a dual-rail track around a blocked direction.
func (s *System) markReroute(c *Cart, dir track.Direction) {
	s.stats.Reroutes++
	s.tel.reroutes.Inc()
	s.tel.spans.RecordInstant(c.trackID, s.tel.ids.reroute, s.Engine.Now(), s.tel.args.dir[dir])
}

// recordQueueWait observes how long a request sat in the FIFO between
// arrival and resource acquisition, and logs the wait as a span annotated
// with the request's op set when it was non-zero.
func (s *System) recordQueueWait(c *Cart, op telemetry.ArgID, since units.Seconds) {
	now := s.Engine.Now()
	s.tel.waitSeconds.Observe(float64(now - since))
	if s.tel.spans != nil && since < now {
		s.tel.spans.RecordSpan(c.trackID, s.tel.ids.enqueue, since, now, op)
	}
}

// recordTransit logs a completed rail transit and its accel/cruise/brake
// phase decomposition. The ramps are the launch physics (dyn.ramp); any
// stall delay stretches the cruise, since the plant cannot re-accelerate a
// cart mid-tube.
func (s *System) recordTransit(c *Cart, start, end units.Seconds, dyn launchDynamics, dir track.Direction) {
	if s.tel.spans == nil {
		return
	}
	args := s.tel.args.dir[dir]
	if dyn.degraded {
		args = s.tel.args.dirDegraded[dir]
	}
	s.tel.spans.RecordSpan(c.trackID, s.tel.ids.transit, start, end, args)
	ramp := dyn.ramp
	if 2*ramp > end-start {
		// Triangular profile (or a clamp from degraded physics): the cart
		// never cruises.
		ramp = (end - start) / 2
	}
	s.tel.spans.RecordSpan(c.trackID, s.tel.ids.accel, start, start+ramp, 0)
	s.tel.spans.RecordSpan(c.trackID, s.tel.ids.cruise, start+ramp, end-ramp, 0)
	s.tel.spans.RecordSpan(c.trackID, s.tel.ids.brake, end-ramp, end, 0)
}
