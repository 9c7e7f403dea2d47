package tubenet

import (
	"context"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/units"
)

func TestCampusRunCompletesAllTrips(t *testing.T) {
	c, err := New(Options{Carts: 40, TripsPerCart: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TripsCompleted != 80 || res.TripsPending != 0 {
		t.Errorf("trips = %d completed, %d pending, want 80/0", res.TripsCompleted, res.TripsPending)
	}
	if res.Parked != 40 {
		t.Errorf("parked = %d, want 40", res.Parked)
	}
	if res.Availability() != 1 {
		t.Errorf("availability = %v, want 1", res.Availability())
	}
	if res.TransitP50 <= 0 || res.TransitP99 < res.TransitP50 {
		t.Errorf("quantiles p50=%v p99=%v look wrong", res.TransitP50, res.TransitP99)
	}
	var entries int
	for _, s := range res.PerEdge {
		entries += s.Entries
	}
	if entries < res.TripsCompleted {
		t.Errorf("only %d edge entries for %d trips", entries, res.TripsCompleted)
	}
	if _, err := c.Run(); err == nil {
		t.Error("a campus must refuse to run twice")
	}
}

func TestCampusRunIsByteIdentical(t *testing.T) {
	run := func() string {
		c, err := New(Options{Carts: 60, TripsPerCart: 3, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different runs:\n%s\nvs\n%s", a, b)
	}
}

// partitionCampus kills every edge touching the trunk ring, isolating all
// four spur lines from each other, with no recovery scheduled.
func partitionCampus(c *Campus) {
	for e := 0; e < c.Topology().NumEdges(); e++ {
		ed := c.Topology().Edge(EdgeID(e))
		if ed.Line == NoLine {
			c.Inject(faults.Fault{Kind: faults.TubeSegmentFailure, Segment: e, Duration: 1})
		}
	}
}

func TestAllPathsDeadPartitionLoitersAndDrains(t *testing.T) {
	c, err := New(Options{Carts: 30, TripsPerCart: 1, Seed: 3, LaunchSpread: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Sever the trunk ring before any cart moves: carts whose destination
	// sits on another spur can never route and must loiter; the simulation
	// still drains (no periodic retry spins forever).
	if _, err := c.eng.At(0, "test-partition", func() { partitionCampus(c) }); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TripsPending == 0 {
		t.Fatal("a severed trunk ring should strand at least one cross-spur trip")
	}
	if res.Loiters == 0 || res.LoiteringAtEnd == 0 {
		t.Errorf("stranded carts must loiter: loiters=%d at-end=%d", res.Loiters, res.LoiteringAtEnd)
	}
	if res.Availability() >= 1 {
		t.Errorf("availability = %v, want < 1 under partition", res.Availability())
	}
	if !strings.Contains(res.String(), "loitering-at-end") {
		t.Errorf("report must surface loitering carts:\n%s", res.String())
	}
	// Same-spur trips still complete.
	if res.TripsCompleted == 0 {
		t.Errorf("same-spur trips should still run: %+v", res)
	}
}

func TestChaosRerouteAroundDeadTrunk(t *testing.T) {
	// One cart, forced onto a known trunk route; kill its planned first
	// trunk segment mid-dwell so the depart reroutes the long way around
	// the ring.
	topo, err := NewCampus(DefaultCampusConfig())
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewSet()
	c, err := New(Options{Topo: topo, Carts: 12, TripsPerCart: 2, Seed: 9, Telemetry: set})
	if err != nil {
		t.Fatal(err)
	}
	// Kill trunk segments in a window long enough to overlap departures.
	kill := func(seg int, at, dur units.Seconds) {
		f := faults.Fault{Kind: faults.TubeSegmentFailure, Segment: seg, At: at, Duration: dur}
		if _, err := c.eng.At(at, "test-kill", func() { c.Inject(f) }); err != nil {
			t.Fatal(err)
		}
		if _, err := c.eng.At(at+dur, "test-heal", func() { c.Recover(f) }); err != nil {
			t.Fatal(err)
		}
	}
	for seg := 0; seg < 8; seg++ { // all trunk edges, staggered windows
		kill(seg, units.Seconds(5+seg*7), 40)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TripsPending != 0 {
		t.Errorf("all trips should finish after heals: %d pending", res.TripsPending)
	}
	if res.Reroutes == 0 && res.Loiters == 0 {
		t.Errorf("trunk chaos should visibly reroute or loiter: %+v", res)
	}
	// Reroutes/loiters must be visible in telemetry, not just the Result.
	snap := set.Metrics.Snapshot()
	var reroutes, loiters float64
	for _, m := range snap.Counters {
		switch m.Name {
		case "tubenet_reroutes_total":
			reroutes = m.Value
		case "tubenet_loiters_total":
			loiters = m.Value
		}
	}
	if int(reroutes) != res.Reroutes || int(loiters) != res.Loiters {
		t.Errorf("telemetry counters (%v, %v) disagree with result (%d, %d)",
			reroutes, loiters, res.Reroutes, res.Loiters)
	}
}

func TestSegmentStallResumesWithRemainingTime(t *testing.T) {
	c, err := New(Options{Carts: 8, TripsPerCart: 1, Seed: 21, LaunchSpread: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Kill every segment at t=1.5: all carts launch in [0,1) and a spur hop
	// takes ~2.7 s, so whoever won its rail span is mid-transit. Heal at 500.
	m := c.Topology().NumEdges()
	if _, err := c.eng.At(1.5, "test-kill-all", func() {
		for e := 0; e < m; e++ {
			c.Inject(faults.Fault{Kind: faults.TubeSegmentFailure, Segment: e, Duration: 1})
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.eng.At(500, "test-heal-all", func() {
		for e := 0; e < m; e++ {
			c.Recover(faults.Fault{Kind: faults.TubeSegmentFailure, Segment: e, Duration: 1})
		}
	}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TripsPending != 0 {
		t.Errorf("%d trips pending after heal", res.TripsPending)
	}
	if res.Stalls == 0 {
		t.Error("carts in transit at t=1 should have stalled")
	}
	if res.Elapsed < 500 {
		t.Errorf("elapsed %v: stalled carts must resume only after the heal", res.Elapsed)
	}
}

func TestJunctionFailureBlocksDeparturesButNotArrivals(t *testing.T) {
	c, err := New(Options{Carts: 20, TripsPerCart: 2, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	// Take junction 0 down for a long window early on.
	f := faults.Fault{Kind: faults.JunctionFailure, Station: 0, At: 2, Duration: 300}
	if _, err := c.eng.At(2, "test-kill-j0", func() { c.Inject(f) }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.eng.At(302, "test-heal-j0", func() { c.Recover(f) }); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TripsPending != 0 {
		t.Errorf("%d trips pending after junction heal", res.TripsPending)
	}
	if res.Loiters == 0 && res.Reroutes == 0 {
		t.Errorf("a 300 s junction outage should strand or reroute someone: %+v", res)
	}
}

func TestCampusPartitionScenarioReplaysByteIdentically(t *testing.T) {
	run := func() string {
		c, err := New(Options{Carts: 40, TripsPerCart: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		script, err := faults.ScenarioDims(faults.ScenarioCampusPartition, 5, 400, c.Dims())
		if err != nil {
			t.Fatal(err)
		}
		inj, err := faults.NewInjector(c.Engine(), c, script)
		if err != nil {
			t.Fatal(err)
		}
		if err := inj.Arm(); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(inj.LogLines(), "\n") + "\n" + res.String()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("campus-partition replay diverged:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "tube-segment-failure") || !strings.Contains(a, "junction-failure") {
		t.Errorf("scenario should inject both campus kinds:\n%s", a)
	}
}

func TestCampusTelemetryExportIsByteIdentical(t *testing.T) {
	run := func() string {
		set := telemetry.NewSet()
		c, err := New(Options{Carts: 25, TripsPerCart: 2, Seed: 13, Telemetry: set})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return telemetry.PrometheusText(set.Metrics.Snapshot())
	}
	a, b := run(), run()
	if a != b {
		t.Error("telemetry exports diverged across identical runs")
	}
	if !strings.Contains(a, "tubenet_trips_total") || !strings.Contains(a, "tubenet_edge_000_util") {
		t.Errorf("export missing tubenet series:\n%.400s", a)
	}
}

func TestRunStudyDeterministicAcrossWorkers(t *testing.T) {
	opt := Options{Carts: 20, TripsPerCart: 2}
	seeds := []int64{1, 2, 3, 4}
	reps1, tot1, err := RunStudy(context.Background(), opt, faults.ScenarioCampusPartition, 300, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	reps4, tot4, err := RunStudy(context.Background(), opt, faults.ScenarioCampusPartition, 300, seeds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tot1 != tot4 {
		t.Errorf("study totals diverged across workers: %+v vs %+v", tot1, tot4)
	}
	if len(reps1) != len(seeds) {
		t.Fatalf("got %d replicas", len(reps1))
	}
	for i := range reps1 {
		if reps1[i].Result.String() != reps4[i].Result.String() {
			t.Errorf("replica %d diverged across worker counts", i)
		}
	}
	if tot1.Replicas != len(seeds) {
		t.Errorf("aggregate saw %d replicas, want %d", tot1.Replicas, len(seeds))
	}
	// Chaos-free control run for contrast: no loiters, no stalls.
	_, calm, err := RunStudy(context.Background(), opt, "", 300, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if calm.Loiters != 0 || calm.Stalls != 0 || calm.TripsPending != 0 {
		t.Errorf("chaos-free study should be clean: %+v", calm)
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := New(Options{Carts: -1}); err == nil {
		t.Error("negative carts must be rejected")
	}
	two := []Node{{Name: "A", Docks: 1}, {Name: "B", Docks: 1}}
	topo, err := NewTopology(two, []Edge{testEdge(0, 1), testEdge(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Topo: topo, Carts: 2}); err != nil {
		t.Errorf("two-station topology should be accepted: %v", err)
	}
	one, err := NewTopology([]Node{{Name: "A", Docks: 1}, {Name: "J", Junction: true}},
		[]Edge{testEdge(0, 1), testEdge(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Topo: one, Carts: 2}); err == nil {
		t.Error("single-station topology must be rejected (no trips possible)")
	}
}
