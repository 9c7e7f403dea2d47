package tubenet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/multistop"
	"repro/internal/netmodel"
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

// mixedLineTopology is a hand-built network whose single-rail line mixes
// Capacity-2 edges with width-2 and width-0 spans, so its conflict sets
// are irregular: junction J feeds stations S0–S3 over line 0, and a
// dual-rail trunk plus a one-segment line 1 reach X and Y.
func mixedLineTopology(t *testing.T) *Topology {
	t.Helper()
	nodes := []Node{
		{Name: "J", Docks: 2, Junction: true},
		{Name: "S0", Docks: 2}, {Name: "S1", Docks: 1}, {Name: "S2", Docks: 2}, {Name: "S3", Docks: 1},
		{Name: "X", Docks: 3}, {Name: "Y", Docks: 1},
	}
	line := func(from, to NodeID, l, lo, hi, capacity int) Edge {
		e := testEdge(from, to)
		e.Line, e.Span, e.Capacity = l, multistop.NewSpan(lo, hi), capacity
		return e
	}
	trunk := func(from, to NodeID) Edge {
		e := testEdge(from, to)
		e.Capacity = 2
		return e
	}
	edges := []Edge{
		trunk(0, 5), trunk(5, 0),
		line(0, 1, 0, 0, 2, 2), line(1, 0, 0, 0, 2, 1),
		line(1, 2, 0, 1, 3, 2), line(2, 1, 0, 1, 3, 2),
		line(2, 3, 0, 2, 4, 1), line(3, 2, 0, 3, 3, 1),
		line(3, 4, 0, 4, 5, 2), line(4, 3, 0, 4, 5, 1),
		line(5, 6, 1, 0, 1, 1), line(6, 5, 1, 0, 1, 1),
	}
	topo, err := NewTopology(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// namedTopology labels a test network.
type namedTopology struct {
	name string
	topo *Topology
}

// pinnedTopologies are the networks beyond the default campus whose run
// digests TestCampusResultsMatchPinnedDigests pins.
func pinnedTopologies(t *testing.T) []namedTopology {
	t.Helper()
	build := func(topo *Topology, err error) *Topology {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	campus := func(junctions, spur int) *Topology {
		cfg := DefaultCampusConfig()
		cfg.Junctions, cfg.SpurStations = junctions, spur
		return build(NewCampus(cfg))
	}
	return []namedTopology{
		{"fattree", build(FromFatTree(netmodel.DefaultFatTree(), DefaultCampusConfig()))},
		{"campus-2x3", campus(2, 3)},
		{"campus-6x4", campus(6, 4)},
		{"mixed-line", mixedLineTopology(t)},
	}
}

// TestCampusResultsMatchPinnedDigests pins the sha256 of Result.String()
// for several topologies, calm and under campus-partition chaos, so a
// dispatch rewrite that should not change behaviour is checked beyond the
// default campus.
func TestCampusResultsMatchPinnedDigests(t *testing.T) {
	// Recorded with the earlier line-scanning dispatch, so they pin
	// behaviour across that rewrite, not just this code against itself.
	want := map[string]string{
		"fattree/calm/seed1":                "8e03cef8a6ec9350e92d4134b8565ffcb5c0a578dac01dad923a6a94c0c6544c",
		"fattree/calm/seed2":                "e3615aaed2e49c161c6bb658ba99420481d4497c1984b9f496e6516c816d63bf",
		"fattree/calm/seed3":                "586858e1751bf42548540a0f8b7b16de2e79c6ef3988545b46ab476c54365963",
		"fattree/campus-partition/seed1":    "7565883ca4c99d948e9a211982ad6befc757b8608ee13d64e8637aee7ca2ce12",
		"fattree/campus-partition/seed2":    "2689bce5cd4a012259645749b60e1de97b2af2c60a61ad49cd04c3bc5cd49c3e",
		"fattree/campus-partition/seed3":    "d9ccb7c004964fef201eb102bac7686f7f3adf4665974a887827c8bab6d51444",
		"campus-2x3/calm/seed1":             "3529aca61aa7aeb293e1245144f9f58390606e2089153024e58a2ce9a9e704a6",
		"campus-2x3/calm/seed2":             "d5b10abb55dcc086444dfcece56f8b833767b0eb3d32d6f09aec2ad1cd5c5d45",
		"campus-2x3/calm/seed3":             "3c4fcf85d9ea53bdd097e7a027bf6dd3ed4f6e32ea05f980bbf230f3bb7d77cf",
		"campus-2x3/campus-partition/seed1": "49249d558cfc4c0e9fbc6fa06c6ec4c8cf0e5dec45acc1027c4a064e000ffbc8",
		"campus-2x3/campus-partition/seed2": "2e58b87709837f5a17afbbd3c32d54fc4d8741d52b015f12c50df9778f4776e2",
		"campus-2x3/campus-partition/seed3": "a5e910f1ca4b160f454587bf8dabcb9d8a1ce78fc29d0c9e0acc82d0831b3fcb",
		"campus-6x4/calm/seed1":             "2aaf6f5bbea03d80ed8faac037398c3697f1d559f5654adbcebfc1185f31bcbd",
		"campus-6x4/calm/seed2":             "d29221387c7a911428a27265fdefa3b7ca01e918c67aa574e53abc37c98b33b5",
		"campus-6x4/calm/seed3":             "c0e4e44b32680d22b736123b4a0e69aba50801b4efa666cb661e1856376f6343",
		"campus-6x4/campus-partition/seed1": "d1a2df8f73d83ff1784943a0856be57165f3a98169e49710d29badab6667026b",
		"campus-6x4/campus-partition/seed2": "aad758bd687c2b639259ea5a11a69bcd9721725b9e3d4fa0e4ea97bec9c816de",
		"campus-6x4/campus-partition/seed3": "9b8280d6d70e839aed2f6a5f38f1621d4b90a371357680f59e1c1012300baf3c",
		"mixed-line/calm/seed1":             "00efeb202caa70954221137adce40ee298fa0a8cfaa7abbb810aefa46b010700",
		"mixed-line/calm/seed2":             "192191d468c853e18e59ea7ec53cd0741c54029901475dcca1e36beac01b689c",
		"mixed-line/calm/seed3":             "ccaefd516aec05c6a2c14a8a4c6f075dbfa8afa447a1e9a1625131320172bd24",
		"mixed-line/campus-partition/seed1": "76d3c70c89e3190575995155dfc67e2de2b600e9362ea13ba2e2bf4f8f382992",
		"mixed-line/campus-partition/seed2": "603f4316bb6a2994ae0ee5898439a88275f2c5820a50dd631520825a36059ae9",
		"mixed-line/campus-partition/seed3": "081dae872db89e4e802353f4e103a2f69f8478964925d4ef75e657f04958e7ac",
	}
	for _, tp := range pinnedTopologies(t) {
		for _, chaos := range []string{"calm", faults.ScenarioCampusPartition} {
			for seed := int64(1); seed <= 3; seed++ {
				opt := Options{Topo: tp.topo, Carts: 200, TripsPerCart: 5, Seed: seed}
				if chaos == "calm" {
					opt.EpochEvery = -1
				}
				c, err := New(opt)
				if err != nil {
					t.Fatal(err)
				}
				if chaos != "calm" {
					script, err := faults.ScenarioDims(chaos, seed, 300, c.Dims())
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
				}
				res, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%s/seed%d", tp.name, chaos, seed)
				sum := sha256.Sum256([]byte(res.String()))
				if got := hex.EncodeToString(sum[:]); got != want[key] {
					t.Errorf("%s: digest %s, want %s\n%s", key, got, want[key], res.String())
				}
			}
		}
	}
}

func TestQuantileSecondsMatchesFullSort(t *testing.T) {
	samples := [][]units.Seconds{
		{4.5},
		{9, 3},
		{2, 2, 2, 2, 2, 2, 2},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		xs := make([]units.Seconds, 1+rng.Intn(300))
		for j := range xs {
			xs[j] = units.Seconds(rng.Intn(1+i%20)) / 4 // heavy duplicates
		}
		samples = append(samples, xs)
	}
	for i, xs := range samples {
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			want := sorted[int(q*float64(len(sorted)-1))]
			if got := quantileSeconds(slices.Clone(xs), q); got != want {
				t.Errorf("sample %d (n=%d): quantile %v = %v, want %v", i, len(xs), q, got, want)
			}
		}
	}
}
