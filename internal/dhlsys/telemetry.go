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

// telemetryHooks are the precomputed metric handles the hot paths touch,
// for the counts Stats does not keep. The zero value (all nil) is the
// disabled state.
type telemetryHooks struct {
	spans *telemetry.SpanLog

	deliveries *telemetry.Counter
	retries    *telemetry.Counter

	launchSeconds *telemetry.Histogram
	ioSeconds     *telemetry.Histogram
	waitSeconds   *telemetry.Histogram

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
	site        [atDock + 1]telemetry.ArgID // site=library, site=endpoint at [atLibrary], [atDock]
	dir         [2]telemetry.ArgID          // dir=<track.Direction>
	dirDegraded [2]telemetry.ArgID          // dir=<track.Direction>, degraded=true
	op          [2]telemetry.ArgID          // op=open, op=close at [Outbound], [Inbound]
	degraded    telemetry.ArgID             // degraded=true
}

// initTelemetry binds the system (and its plant, injector, and engine) to
// the telemetry set. A nil set leaves every hook nil — the disabled state
// — and registers nothing.
func (s *System) initTelemetry(set *telemetry.Set) {
	s.telSet = set
	if set == nil {
		return
	}
	reg := set.MetricsOf()
	s.tel = telemetryHooks{
		spans:         set.SpansOf(),
		deliveries:    reg.Counter("dhl_deliveries_total"),
		retries:       reg.Counter("dhl_retries_total"),
		launchSeconds: reg.Histogram("dhl_launch_seconds", launchBuckets),
		ioSeconds:     reg.Histogram("dhl_io_seconds", ioBuckets),
		waitSeconds:   reg.Histogram("dhl_queue_wait_seconds", waitBuckets),
	}
	// Counts Stats or the engine already keeps are views: recorded once,
	// read at snapshot time.
	st, eng := &s.stats, s.Engine
	reg.CounterFunc("dhl_launches_total", func() float64 { return float64(st.Launches) })
	reg.CounterFunc("dhl_degraded_launches_total", func() float64 { return float64(st.DegradedLaunches) })
	reg.CounterFunc("dhl_dock_ops_total", func() float64 { return float64(st.DockOps) })
	reg.CounterFunc("dhl_launch_timeouts_total", func() float64 { return float64(st.Timeouts) })
	reg.CounterFunc("dhl_backoffs_total", func() float64 { return float64(st.Backoffs) })
	reg.CounterFunc("dhl_stalls_total", func() float64 { return float64(st.Stalls) })
	reg.CounterFunc("dhl_reroutes_total", func() float64 { return float64(st.Reroutes) })
	reg.CounterFunc("dhl_api_denied_total", func() float64 { return float64(st.Denied) })
	// Like Stats.Queued, dhl_api_queued_total also counts an arrived cart
	// that waits for a station.
	reg.CounterFunc("dhl_api_queued_total", func() float64 { return float64(st.Queued) })
	reg.CounterFunc("dhl_degraded_reads_total", func() float64 { return float64(st.DegradedReads) })
	reg.CounterFunc("dhl_launch_energy_joules_total", func() float64 { return float64(st.Energy) })
	reg.CounterFunc("dhl_bytes_read_total", func() float64 { return float64(st.BytesRead) })
	reg.CounterFunc("dhl_bytes_written_total", func() float64 { return float64(st.BytesWritten) })
	reg.CounterFunc("dhl_sim_events_total", func() float64 { return float64(eng.Processed()) })
	reg.GaugeFunc("dhl_sim_time_seconds", func() float64 { return float64(eng.Now()) })
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
	// Composite-literal calls run left to right, so the sets intern in
	// the order written.
	s.tel.args = spanArgs{
		site: [atDock + 1]telemetry.ArgID{
			atLibrary: sp.InternArgs(telemetry.KV{Key: "site", Value: "library"}),
			atDock:    sp.InternArgs(telemetry.KV{Key: "site", Value: "endpoint"}),
		},
		op: [2]telemetry.ArgID{
			track.Outbound: sp.InternArgs(telemetry.KV{Key: "op", Value: "open"}),
			track.Inbound:  sp.InternArgs(telemetry.KV{Key: "op", Value: "close"}),
		},
		degraded: sp.InternArgs(degraded),
	}
	for _, d := range []track.Direction{track.Outbound, track.Inbound} {
		dir := telemetry.KV{Key: "dir", Value: d.String()}
		s.tel.args.dir[d] = sp.InternArgs(dir)
		s.tel.args.dirDegraded[d] = sp.InternArgs(dir, degraded)
	}
	for _, c := range s.carts {
		c.trackID = sp.Intern(cartTrack(c.ID))
	}
	s.plant.instrument(reg)
	s.inj.SetTelemetry(set)
}

// Telemetry returns the system's telemetry set (nil when disabled).
func (s *System) Telemetry() *telemetry.Set { return s.telSet }

// MetricsSnapshot snapshots the registry; the zero snapshot when
// telemetry is disabled.
func (s *System) MetricsSnapshot() telemetry.Snapshot {
	return s.telSet.MetricsOf().Snapshot()
}

// deny accounts one immediately-failed API request.
func (s *System) deny() { s.stats.Denied++ }

// cartTrack names a cart's span track.
func cartTrack(id track.CartID) string { return "cart-" + strconv.Itoa(int(id)) }

// recordLaunch accounts one completed one-way trip: the Stats counters
// and the undock-to-dock duration histogram.
func (s *System) recordLaunch(c *cart, dyn launchDynamics) {
	s.stats.Launches++
	s.stats.Energy += dyn.energy
	s.tel.launchSeconds.Observe(float64(s.Engine.Now() - c.scratch.launchStart))
}

// markReroute accounts a launch reverse-running over the opposite rail of
// a dual-rail track around a blocked direction.
func (s *System) markReroute(c *cart, dir track.Direction) {
	s.stats.Reroutes++
	s.tel.spans.RecordInstant(c.trackID, s.tel.ids.reroute, s.Engine.Now(), s.tel.args.dir[dir])
}

// recordQueueWait observes how long a request sat in the FIFO between
// arrival and resource acquisition, and logs the wait as a span annotated
// with the request's op set when it was non-zero.
func (s *System) recordQueueWait(c *cart, op telemetry.ArgID, since units.Seconds) {
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
func (s *System) recordTransit(c *cart, start, end units.Seconds, dyn launchDynamics, dir track.Direction) {
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
