package tubenet

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/units"
)

// The §VI multi-stop track as a path graph: one DHL line serving several
// racks, with carts stopping at any station and concurrent moves managed on
// the shared single rail.

// lineStops are the stop positions of the test line, in metres.
var lineStops = []units.Metres{0, 200, 350, 500}

// lineTopology builds the path graph over stops at the given positions: one
// single-rail line whose segment between stops p and p+1 is edge 2p
// forwards and 2p+1 backwards, both carrying span [p, p+1].
func lineTopology(t *testing.T, stops []units.Metres, speed units.MetresPerSecond) *Topology {
	t.Helper()
	nodes := make([]Node, len(stops))
	for i := range nodes {
		nodes[i] = Node{Name: "stop", Docks: 4}
	}
	var edges []Edge
	for p := 0; p+1 < len(stops); p++ {
		e := testEdge(NodeID(p), NodeID(p+1))
		e.Length, e.MaxSpeed, e.Line, e.Span = stops[p+1]-stops[p], speed, 0, NewSpan(p, p+1)
		r := e
		r.From, r.To = e.To, e.From
		edges = append(edges, e, r)
	}
	topo, err := NewTopology(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// trip is one cart's scripted move between two stops, launched at t = 0.
type trip struct{ from, to NodeID }

// lineCampus builds a campus that flies the scripted trips over topo, one
// cart per trip, with no congestion epochs.
func lineCampus(t *testing.T, topo *Topology, trips ...trip) *Campus {
	t.Helper()
	opt := Options{Topo: topo, Carts: len(trips), TripsPerCart: 1, EpochEvery: -1}
	plan := tripPlan{
		start:  make([]NodeID, len(trips)),
		launch: make([]units.Seconds, len(trips)),
		dests:  make([]NodeID, len(trips)),
	}
	for i, tr := range trips {
		plan.start[i], plan.dests[i] = tr.from, tr.to
	}
	c, err := newCampus(opt, plan)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runTrips runs the campus and returns its result and each cart's trip
// time, launch to dock.
func runTrips(t *testing.T, c *Campus) (Result, []units.Seconds) {
	t.Helper()
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TripsPending != 0 {
		t.Fatalf("%d trips pending:\n%s", res.TripsPending, res)
	}
	times := make([]units.Seconds, len(c.carts))
	for i, ct := range c.carts {
		times[i] = ct.dockStart - ct.tripStart
	}
	return res, times
}

// aloneTimes is each trip's time when it has the line to itself.
func aloneTimes(t *testing.T, topo *Topology, trips ...trip) []units.Seconds {
	t.Helper()
	out := make([]units.Seconds, len(trips))
	for i, tr := range trips {
		_, times := runTrips(t, lineCampus(t, topo, tr))
		out[i] = times[0]
	}
	return out
}

func TestLineDisjointSpansRunConcurrently(t *testing.T) {
	topo := lineTopology(t, lineStops, 200)
	trips := []trip{{0, 1}, {2, 3}} // spans [0,1] and [2,3]
	alone := aloneTimes(t, topo, trips...)
	res, times := runTrips(t, lineCampus(t, topo, trips...))
	if res.MaxQueue != 0 {
		t.Errorf("max queue = %d, want 0: disjoint spans never wait", res.MaxQueue)
	}
	for i := range trips {
		if times[i] != alone[i] {
			t.Errorf("trip %v took %v, %v alone", trips[i], times[i], alone[i])
		}
	}
	// Concurrent: the run lasts the slower trip plus its dwell, not the sum.
	want := math.Max(float64(alone[0]), float64(alone[1])) + float64(dwellTime)
	if math.Abs(float64(res.Elapsed)-want) > 1e-9 {
		t.Errorf("elapsed %v, want the slower trip plus the dwell, %v", res.Elapsed, want)
	}
}

func TestLineOverlappingSpansQueue(t *testing.T) {
	topo := lineTopology(t, lineStops, 200)
	trips := []trip{{0, 3}, {1, 2}} // the whole line, and a span inside it
	alone := aloneTimes(t, topo, trips...)
	res, times := runTrips(t, lineCampus(t, topo, trips...))
	if res.MaxQueue < 1 {
		t.Errorf("max queue = %d, want ≥ 1: overlapping spans must queue", res.MaxQueue)
	}
	for i := range trips {
		if !(times[i] > alone[i]) {
			t.Errorf("trip %v took %v under contention, no longer than %v alone", trips[i], times[i], alone[i])
		}
	}
}

// failSegment fails the middle segment (stop 1 → stop 2) of a line under a
// cart crossing the whole line: one failure window opens at t = 0 for each
// heal time and closes at it. It returns the run's result and the cart's
// trip time.
func failSegment(t *testing.T, heals ...units.Seconds) (Result, units.Seconds) {
	t.Helper()
	c := lineCampus(t, lineTopology(t, lineStops, 200), trip{0, 3})
	f := faults.Fault{Kind: faults.TubeSegmentFailure, Segment: 2}
	for _, at := range heals {
		if _, err := c.eng.At(0, "test-kill", func() { c.Inject(f) }); err != nil {
			t.Fatal(err)
		}
		if _, err := c.eng.At(at, "test-heal", func() { c.Recover(f) }); err != nil {
			t.Fatal(err)
		}
	}
	res, times := runTrips(t, c)
	return res, times[0]
}

// TestLineBlockedSegmentHoldsMovesUntilHeal fails the middle segment under a
// cart crossing the whole line: the cart waits (loiters) and completes only
// after the segment heals at 30 s.
func TestLineBlockedSegmentHoldsMovesUntilHeal(t *testing.T) {
	res, took := failSegment(t, 30)
	if took <= 30 {
		t.Errorf("trip finished at %v, before the heal at 30 s", took)
	}
	if res.Loiters < 1 {
		t.Errorf("loiters = %d, want ≥ 1", res.Loiters)
	}
}

// TestLineSegmentFailuresNest opens two overlapping failure windows on the
// same segment: the first heal (30 s) must not return it to service, so the
// cart completes only after the second (60 s).
func TestLineSegmentFailuresNest(t *testing.T) {
	res, took := failSegment(t, 30, 60)
	if took <= 60 {
		t.Errorf("trip finished at %v, before the last heal at 60 s: one heal cleared both failures", took)
	}
	if res.Loiters < 1 {
		t.Errorf("loiters = %d, want ≥ 1", res.Loiters)
	}
}

// TestLineShortHopIsTriangular checks that a hop too short to reach the
// line speed is a legal edge flying the triangular profile: 30 m at
// 200 m/s and 1000 m/s² takes 2√(30/1000) s.
func TestLineShortHopIsTriangular(t *testing.T) {
	topo := lineTopology(t, []units.Metres{0, 30}, 200)
	base, err := topo.TransitTimes(DefaultCartMass, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := units.Seconds(2 * math.Sqrt(0.03))
	if base[0] != want || base[1] != want {
		t.Errorf("30 m transit = %v, want %v both ways", base[:2], want)
	}
	_, times := runTrips(t, lineCampus(t, topo, trip{0, 1}))
	if times[0] != want {
		t.Errorf("30 m trip took %v, want %v", times[0], want)
	}
}

// TestLineHigherSpeedAmelioratesContention checks §VI's claim that
// multi-stop operation "would motivate higher speeds to ameliorate
// potential contention from different users": four carts leave the library
// end together for overlapping spans, and their total queueing wait (the
// summed trip times minus the same trips run alone) falls as the line speed
// rises.
func TestLineHigherSpeedAmelioratesContention(t *testing.T) {
	trips := []trip{{0, 1}, {0, 2}, {0, 3}, {0, 1}}
	prev := units.Seconds(math.Inf(1))
	for _, speed := range []units.MetresPerSecond{100, 200, 300} {
		topo := lineTopology(t, lineStops, speed)
		alone := aloneTimes(t, topo, trips...)
		_, times := runTrips(t, lineCampus(t, topo, trips...))
		var wait units.Seconds
		for i := range trips {
			wait += times[i] - alone[i]
		}
		t.Logf("%v m/s: total queueing wait %.3f s", float64(speed), float64(wait))
		if !(wait > 0) {
			t.Errorf("%v m/s: total wait %v, want > 0 under contention", speed, wait)
		}
		if !(wait < prev) {
			t.Errorf("%v m/s: total wait %v does not undercut %v at the lower speed", speed, wait, prev)
		}
		prev = wait
	}
}
