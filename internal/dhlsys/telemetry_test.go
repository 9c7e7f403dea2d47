package dhlsys

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// shuttleWith runs a small bulk transfer, instrumented with set (nil set
// → uninstrumented), and returns the result and the stats.
func shuttleWith(t *testing.T, set *telemetry.Set, script *faults.Script) (ShuttleResult, Stats) {
	t.Helper()
	opt := DefaultOptions()
	opt.NumCarts = 2
	opt.Telemetry = set
	opt.Faults = script
	sys, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Shuttle(ShuttleOptions{
		Dataset:        4 * opt.Core.Cart.Capacity(),
		ReadAtEndpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, sys.Stats()
}

func TestTelemetryRecordsLifecycle(t *testing.T) {
	set := telemetry.NewSet()
	res, stats := shuttleWith(t, set, nil)
	if res.Deliveries != 4 {
		t.Fatalf("deliveries = %d, want 4", res.Deliveries)
	}
	snap := set.Metrics.Snapshot()
	get := func(name string) float64 {
		for _, c := range snap.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		t.Fatalf("counter %q missing from snapshot", name)
		return 0
	}
	if got := get("dhl_launches_total"); int(got) != stats.Launches {
		t.Errorf("dhl_launches_total = %v, stats.Launches = %d", got, stats.Launches)
	}
	if got := get("dhl_deliveries_total"); got != 4 {
		t.Errorf("dhl_deliveries_total = %v, want 4", got)
	}
	if got := get("dhl_dock_ops_total"); int(got) != stats.DockOps {
		t.Errorf("dhl_dock_ops_total = %v, stats.DockOps = %d", got, stats.DockOps)
	}
	if got := get("dhl_launch_energy_joules_total"); units.Joules(got) != stats.Energy {
		t.Errorf("dhl_launch_energy_joules_total = %v, stats.Energy = %v", got, stats.Energy)
	}
	if got := get("dhl_sim_events_total"); got == 0 {
		t.Error("dhl_sim_events_total = 0: engine tracer not wired")
	}
	// Every lifecycle phase appears on the span log.
	names := make(map[string]bool)
	for _, sp := range set.Spans.Spans() {
		names[sp.Name] = true
	}
	for _, want := range []string{"undock", "transit", "accel", "cruise", "brake", "dock", "io-read"} {
		if !names[want] {
			t.Errorf("span %q missing from the log (have %v)", want, names)
		}
	}
}

func TestTelemetryDisabledIsEquivalent(t *testing.T) {
	// The simulation's outcome must not depend on whether it is observed.
	resOn, statsOn := shuttleWith(t, telemetry.NewSet(), nil)
	resOff, statsOff := shuttleWith(t, nil, nil)
	if resOn.Deliveries != resOff.Deliveries || resOn.Duration != resOff.Duration ||
		resOn.Energy != resOff.Energy || resOn.Retries != resOff.Retries {
		t.Errorf("instrumented run diverged: %+v vs %+v", resOn, resOff)
	}
	if statsOn != statsOff {
		t.Errorf("stats diverged: %+v vs %+v", statsOn, statsOff)
	}
}

func TestTelemetryFaultInstrumentation(t *testing.T) {
	set := telemetry.NewSet()
	script := faults.Script{Faults: []faults.Fault{
		{At: 1, Kind: faults.VacuumLeak, Pressure: 40_000, Duration: 200},
	}}
	_, stats := shuttleWith(t, set, &script)
	if stats.DegradedLaunches == 0 {
		t.Fatal("scenario produced no degraded launches; test is vacuous")
	}
	snap := set.Metrics.Snapshot()
	var inj, degraded float64
	for _, c := range snap.Counters {
		switch c.Name {
		case "dhl_faults_injected_total":
			inj = c.Value
		case "dhl_degraded_launches_total":
			degraded = c.Value
		}
	}
	if inj != 1 {
		t.Errorf("dhl_faults_injected_total = %v, want 1", inj)
	}
	if int(degraded) != stats.DegradedLaunches {
		t.Errorf("dhl_degraded_launches_total = %v, stats = %d", degraded, stats.DegradedLaunches)
	}
	// The outage span lands on the faults track.
	found := false
	for _, sp := range set.Spans.Spans() {
		if sp.Track == faults.FaultTrack && sp.Name == "outage:vacuum-leak" {
			found = true
			if sp.End-sp.Start != 200 {
				t.Errorf("outage span duration = %v, want 200", sp.End-sp.Start)
			}
		}
	}
	if !found {
		t.Error("outage span missing from the faults track")
	}
}

// TestTelemetryStallDelayAnnotations checks the computed annotation path
// (SpanLog.ArgsOf) on the stall instants: every stall carries its own
// delay, and two distinct delays stay distinct sets.
func TestTelemetryStallDelayAnnotations(t *testing.T) {
	set := telemetry.NewSet()
	var script faults.Script
	for i := 1; i <= 120; i++ {
		d := units.Seconds(2)
		if i%2 == 0 {
			d = 3.5
		}
		script.Faults = append(script.Faults, faults.Fault{At: units.Seconds(i) / 2, Kind: faults.CartStall, Cart: 0, Duration: d})
	}
	_, stats := shuttleWith(t, set, &script)
	if stats.Stalls == 0 {
		t.Fatal("scenario stalled no cart; test is vacuous")
	}
	seen := map[string]int{}
	set.Spans.EachInstant(func(in telemetry.Instant) {
		if in.Name != markStall {
			return
		}
		if len(in.Args) != 1 || in.Args[0].Key != "delay_s" {
			t.Fatalf("stall at %v carries %v, want one delay_s", in.At, in.Args)
		}
		seen[in.Args[0].Value]++
	})
	if seen["2"]+seen["3.5"] != stats.Stalls || seen["2"] == 0 || seen["3.5"] == 0 {
		t.Errorf("stall delays %v over %d stalls, want both 2 and 3.5 and nothing else", seen, stats.Stalls)
	}
}

func TestMetricsSnapshotSetsSimTime(t *testing.T) {
	set := telemetry.NewSet()
	opt := DefaultOptions()
	opt.Telemetry = set
	sys, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Shuttle(ShuttleOptions{Dataset: opt.Core.Cart.Capacity()}); err != nil {
		t.Fatal(err)
	}
	snap := sys.MetricsSnapshot()
	for _, g := range snap.Gauges {
		if g.Name == "dhl_sim_time_seconds" {
			if units.Seconds(g.Value) != sys.Engine.Now() {
				t.Errorf("sim-time gauge = %v, engine at %v", g.Value, sys.Engine.Now())
			}
			return
		}
	}
	t.Error("dhl_sim_time_seconds gauge missing")
}

// TestDirectSnapshotReadsEngine: a snapshot taken straight off the
// registry, not through MetricsSnapshot, reads the engine's event count
// and clock as they stand.
func TestDirectSnapshotReadsEngine(t *testing.T) {
	set := telemetry.NewSet()
	opt := DefaultOptions()
	opt.Telemetry = set
	sys, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Shuttle(ShuttleOptions{Dataset: opt.Core.Cart.Capacity()}); err != nil {
		t.Fatal(err)
	}
	snap := set.Metrics.Snapshot()
	var events, simTime float64
	for _, c := range snap.Counters {
		if c.Name == "dhl_sim_events_total" {
			events = c.Value
		}
	}
	for _, g := range snap.Gauges {
		if g.Name == "dhl_sim_time_seconds" {
			simTime = g.Value
		}
	}
	if int(events) != sys.Engine.Processed() || units.Seconds(simTime) != sys.Engine.Now() {
		t.Errorf("dhl_sim_events_total = %v, dhl_sim_time_seconds = %v; engine processed %d events and stands at %v",
			events, simTime, sys.Engine.Processed(), sys.Engine.Now())
	}
}

func TestMetricsSnapshotDisabledIsZero(t *testing.T) {
	opt := DefaultOptions()
	sys, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.MetricsSnapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("disabled snapshot not empty: %+v", snap)
	}
	if sys.Telemetry() != nil {
		t.Error("Telemetry() must be nil when disabled")
	}
}
