package tubenet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/units"
)

// diamond builds the four-node tie-break fixture:
//
//	  A(0)
//	 /    \
//	B(1)  C(2)
//	 \    /
//	  D(3)
//
// Both A→B→D and A→C→D cost exactly two identical segments, so the route
// choice is purely the tie-break rule.
func diamond(t *testing.T) (*Topology, []units.Seconds) {
	t.Helper()
	nodes := []Node{
		{Name: "A", Docks: 1}, {Name: "B", Docks: 1},
		{Name: "C", Docks: 1}, {Name: "D", Docks: 1},
	}
	edges := []Edge{
		testEdge(0, 1), // e0: A→B
		testEdge(0, 2), // e1: A→C
		testEdge(1, 3), // e2: B→D
		testEdge(2, 3), // e3: C→D
	}
	topo, err := NewTopology(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	base, err := topo.TransitTimes(DefaultCartMass, 0)
	if err != nil {
		t.Fatal(err)
	}
	return topo, base
}

func allUp(topo *Topology) Liveness {
	nu := make([]bool, topo.NumNodes())
	eu := make([]bool, topo.NumEdges())
	for i := range nu {
		nu[i] = true
	}
	for i := range eu {
		eu[i] = true
	}
	return Liveness{NodeUp: nu, EdgeUp: eu}
}

func TestEqualCostTieBreakIsDeterministic(t *testing.T) {
	topo, base := diamond(t)
	r, err := NewRouter(topo, base, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := allUp(topo)
	if err := r.Recompute(context.Background(), live, nil); err != nil {
		t.Fatal(err)
	}
	// Equal-cost paths A→B→D and A→C→D: the smaller first-hop EdgeID (e0,
	// via B) must win, on every recompute, on every router.
	if got := r.NextHop(0, 3); got != 0 {
		t.Errorf("NextHop(A,D) = e%d, want e0 (smaller first-hop wins ties)", got)
	}
	r2, err := NewRouter(topo, base, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r2.Recompute(context.Background(), live, nil); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r2.next, r.next) {
			t.Fatalf("recompute %d diverged from the first router's table", i)
		}
	}
}

func TestRouterSkipsZeroCapacityEdge(t *testing.T) {
	topo, base := diamond(t)
	// Kill the preferred path's first hop by capacity: e0 (A→B) becomes a
	// commissioned-but-closed tube.
	edges := make([]Edge, topo.NumEdges())
	for i := range edges {
		edges[i] = topo.edges[i]
	}
	edges[0].Capacity = 0
	topo2, err := NewTopology([]Node{
		topo.Node(0), topo.Node(1), topo.Node(2), topo.Node(3),
	}, edges)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(topo2, base, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Recompute(context.Background(), allUp(topo2), nil); err != nil {
		t.Fatal(err)
	}
	if got := r.NextHop(0, 3); got != 1 {
		t.Errorf("NextHop(A,D) = e%d, want e1: zero-capacity e0 must never route", got)
	}
	if got := r.NextHop(0, 1); got != NoEdge {
		t.Errorf("NextHop(A,B) = e%d, want NoEdge: B is only reachable over the closed tube", got)
	}
}

func TestCongestionWeightShiftsRoute(t *testing.T) {
	topo, base := diamond(t)
	r, err := NewRouter(topo, base, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A deep queue on e0 makes the B path expensive; the router must shift
	// to e1 even though the tie-break would prefer e0.
	queues := make([]int, topo.NumEdges())
	queues[0] = 5
	if err := r.Recompute(context.Background(), allUp(topo), queues); err != nil {
		t.Fatal(err)
	}
	if got := r.NextHop(0, 3); got != 1 {
		t.Errorf("NextHop(A,D) = e%d, want e1 under congestion on e0", got)
	}
	if got := r.Epochs(); got != 1 {
		t.Errorf("Epochs = %d, want 1", got)
	}
}

func TestRouterExcludesDeadNodesAndEdges(t *testing.T) {
	topo, base := diamond(t)
	r, err := NewRouter(topo, base, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := allUp(topo)
	live.NodeUp[1] = false // junction B dead
	if err := r.Recompute(context.Background(), live, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.NextHop(0, 3); got != 1 {
		t.Errorf("NextHop(A,D) = e%d, want e1 around dead node B", got)
	}
	if got := r.NextHop(0, 1); got != NoEdge {
		t.Errorf("NextHop(A,B) = e%d, want NoEdge to a dead node", got)
	}
	live = allUp(topo)
	live.EdgeUp[0] = false
	live.EdgeUp[1] = false // both first hops dead: full partition from A
	if err := r.Recompute(context.Background(), live, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.NextHop(0, 3); got != NoEdge {
		t.Errorf("NextHop(A,D) = e%d, want NoEdge under full partition", got)
	}
	// A dead source routes nowhere at all.
	live = allUp(topo)
	live.NodeUp[0] = false
	if err := r.Recompute(context.Background(), live, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.NextHop(0, 3); got != NoEdge {
		t.Errorf("NextHop from dead node = e%d, want NoEdge", got)
	}
}

func TestNewRouterValidation(t *testing.T) {
	topo, base := diamond(t)
	if _, err := NewRouter(nil, nil, 0, 1); err == nil {
		t.Error("nil topology must be rejected")
	}
	if _, err := NewRouter(topo, base[:2], 0, 1); err == nil {
		t.Error("cost/edge length mismatch must be rejected")
	}
	for _, b := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		bad := append([]units.Seconds(nil), base...)
		bad[1] = units.Seconds(b)
		if _, err := NewRouter(topo, bad, 0, 1); !errors.Is(err, ErrBadTopology) {
			t.Errorf("base cost %v: err = %v, want ErrBadTopology", b, err)
		}
	}
	// A NaN or +Inf weight makes every zero-queue cost NaN (∞·0), so a
	// live graph would route nowhere.
	for _, alpha := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := NewRouter(topo, base, alpha, 1); !errors.Is(err, ErrBadTopology) {
			t.Errorf("alpha %v: err = %v, want ErrBadTopology", alpha, err)
		}
	}
	// Unrecomputed router answers NoEdge rather than panicking.
	r, err := NewRouter(topo, base, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.NextHop(0, 3); got != NoEdge {
		t.Errorf("NextHop before Recompute = %d, want NoEdge", got)
	}
}

func TestRouterOnDefaultCampusReachesEverywhere(t *testing.T) {
	topo, err := NewCampus(DefaultCampusConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := topo.TransitTimes(DefaultCartMass, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(topo, base, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Recompute(context.Background(), allUp(topo), nil); err != nil {
		t.Fatal(err)
	}
	n := topo.NumNodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if r.NextHop(NodeID(s), NodeID(d)) == NoEdge {
				t.Errorf("campus must be fully connected: no route %d→%d", s, d)
			}
		}
	}
}

// referenceTable is a plain full-scan Dijkstra, the differential oracle
// for the Router: per source, settle the unfinished node with the
// smallest (dist, NodeID) by scanning every node, relax all out-edges in
// ascending EdgeID order (checking usability per relaxation), and let an
// exactly-equal-cost path win only with a smaller first-hop EdgeID.
func referenceTable(topo *Topology, base []units.Seconds, alpha float64, live Liveness, queues []int) [][]EdgeID {
	n := topo.NumNodes()
	cost := make([]float64, topo.NumEdges())
	for e := range cost {
		q := 0.0
		if queues != nil {
			q = float64(queues[e])
		}
		cost[e] = float64(base[e]) * (1 + alpha*q)
	}
	usable := func(e EdgeID) bool {
		ed := topo.edges[e]
		return ed.Capacity > 0 &&
			(live.EdgeUp == nil || live.EdgeUp[e]) &&
			(live.NodeUp == nil || live.NodeUp[ed.To])
	}
	table := make([][]EdgeID, n)
	for src := range table {
		dist := make([]float64, n)
		hop := make([]EdgeID, n)
		done := make([]bool, n)
		for i := range dist {
			dist[i] = math.Inf(1)
			hop[i] = NoEdge
		}
		table[src] = hop
		if live.NodeUp != nil && !live.NodeUp[src] {
			continue
		}
		dist[src] = 0
		for {
			u := NodeID(-1)
			best := math.Inf(1)
			for i := 0; i < n; i++ {
				if !done[i] && dist[i] < best {
					best = dist[i]
					u = NodeID(i)
				}
			}
			if u < 0 {
				break
			}
			done[u] = true
			for _, e := range topo.Out(u) {
				if !usable(e) {
					continue
				}
				v := topo.edges[e].To
				if done[v] {
					continue
				}
				nd := dist[u] + cost[e]
				fh := hop[u]
				if int(u) == src {
					fh = e
				}
				//dhllint:allow floateq -- the oracle reproduces the router's bit-equal tie-break exactly
				tie := nd == dist[v] && fh < hop[v]
				if nd < dist[v] || tie {
					dist[v] = nd
					hop[v] = fh
				}
			}
		}
	}
	return table
}

// randomState draws one liveness/queue vector. Some draws leave NodeUp,
// EdgeUp or the queues nil; the rest kill each node and edge with a
// draw-specific probability and queue up to three carts per edge, small
// enough that equal-cost ties stay common.
func randomState(rng *rand.Rand, topo *Topology) (Liveness, []int) {
	var live Liveness
	pDead := rng.Float64() * 0.3
	if rng.Intn(4) > 0 {
		live.NodeUp = make([]bool, topo.NumNodes())
		for i := range live.NodeUp {
			live.NodeUp[i] = rng.Float64() >= pDead
		}
	}
	if rng.Intn(4) > 0 {
		live.EdgeUp = make([]bool, topo.NumEdges())
		for i := range live.EdgeUp {
			live.EdgeUp[i] = rng.Float64() >= pDead
		}
	}
	if rng.Intn(4) == 0 {
		return live, nil
	}
	queues := make([]int, topo.NumEdges())
	for i := range queues {
		if rng.Intn(3) == 0 {
			queues[i] = rng.Intn(4)
		}
	}
	return live, queues
}

// topoCase is a topology under test with its congestion-free edge costs.
type topoCase struct {
	name string
	topo *Topology
	base []units.Seconds
}

// campus builds the campus of j junctions with s spur stations each.
func campus(t *testing.T, j, s int) topoCase {
	t.Helper()
	cfg := DefaultCampusConfig()
	cfg.Junctions, cfg.SpurStations = j, s
	topo, err := NewCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := topo.TransitTimes(DefaultCartMass, 0)
	if err != nil {
		t.Fatal(err)
	}
	return topoCase{fmt.Sprintf("campus-%dx%d", j, s), topo, base}
}

// TestRouterMatchesScanReference drives one warm Router per topology and
// α through thousands of seeded liveness/queue vectors and compares every
// NextHop against the scan-based reference table.
func TestRouterMatchesScanReference(t *testing.T) {
	var cases []topoCase
	for _, js := range [][2]int{{1, 1}, {2, 3}, {3, 2}, {6, 4}, {8, 8}} {
		cases = append(cases, campus(t, js[0], js[1]))
	}
	ft, err := FromFatTree(netmodel.DefaultFatTree())
	if err != nil {
		t.Fatal(err)
	}
	ftBase, err := ft.TransitTimes(DefaultCartMass, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, topoCase{"fat-tree", ft, ftBase})
	dia, diaBase := diamond(t)
	cases = append(cases, topoCase{"diamond", dia, diaBase})
	// A campus with every fifth tube closed (zero capacity).
	c := campus(t, 3, 2)
	nodes := make([]Node, c.topo.NumNodes())
	for i := range nodes {
		nodes[i] = c.topo.Node(NodeID(i))
	}
	edges := make([]Edge, c.topo.NumEdges())
	for i := range edges {
		edges[i] = c.topo.edges[i]
		if i%5 == 0 {
			edges[i].Capacity = 0
		}
	}
	closed, err := NewTopology(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, topoCase{"campus-3x2-closed", closed, c.base})

	vectors := 2000
	if testing.Short() {
		vectors = 200
	}
	for ci, tc := range cases {
		for _, alpha := range []float64{0, 0.25, 1} {
			r, err := NewRouter(tc.topo, tc.base, alpha, 1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(1000*ci) + int64(alpha*100)))
			n := tc.topo.NumNodes()
			for k := 0; k < vectors; k++ {
				live, queues := randomState(rng, tc.topo)
				if err := r.Recompute(context.Background(), live, queues); err != nil {
					t.Fatal(err)
				}
				want := referenceTable(tc.topo, tc.base, alpha, live, queues)
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						if got := r.NextHop(NodeID(src), NodeID(dst)); got != want[src][dst] {
							t.Fatalf("%s α=%v vector %d: NextHop(%d,%d) = %d, reference %d",
								tc.name, alpha, k, src, dst, got, want[src][dst])
						}
					}
				}
			}
		}
	}
}

// matchReference fails t unless every entry of r's table equals the
// scan-based reference's under the same state.
func matchReference(t *testing.T, label string, r *Router, tc topoCase, alpha float64, live Liveness, queues []int) {
	t.Helper()
	want := referenceTable(tc.topo, tc.base, alpha, live, queues)
	for src := range want {
		for dst, w := range want[src] {
			if got := r.NextHop(NodeID(src), NodeID(dst)); got != w {
				t.Fatalf("%s: NextHop(%d,%d) = %d, reference %d", label, src, dst, got, w)
			}
		}
	}
}

// TestRouterHeldLivenessMatchesReference holds each liveness draw for 40
// queue vectors, so most recomputes reuse the forced-hop table instead of
// rebuilding it, and compares every entry with the reference.
func TestRouterHeldLivenessMatchesReference(t *testing.T) {
	draws := 25
	if testing.Short() {
		draws = 5
	}
	for ci, js := range [][2]int{{1, 1}, {2, 3}, {4, 5}, {6, 4}} {
		tc := campus(t, js[0], js[1])
		for _, alpha := range []float64{0, 0.25, 1} {
			r, err := NewRouter(tc.topo, tc.base, alpha, 1)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(100*ci) + int64(alpha*100)))
			for d := 0; d < draws; d++ {
				live, _ := randomState(rng, tc.topo)
				for k := 0; k < 40; k++ {
					_, queues := randomState(rng, tc.topo)
					if err := r.Recompute(context.Background(), live, queues); err != nil {
						t.Fatal(err)
					}
					matchReference(t, fmt.Sprintf("%s α=%v draw %d vector %d", tc.name, alpha, d, k), r, tc, alpha, live, queues)
				}
			}
		}
	}
}

// TestRouterSourceFlipKeepsUsableEdges flips one node's liveness while
// every edge into it is down, so the usable edge set stays the same. The
// node's own row still changes between routing and routing nowhere, so
// the forced-hop table must be rebuilt.
func TestRouterSourceFlipKeepsUsableEdges(t *testing.T) {
	tc := campus(t, 4, 5)
	r, err := NewRouter(tc.topo, tc.base, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < tc.topo.NumNodes(); x++ {
		live := allUp(tc.topo)
		for e := range live.EdgeUp {
			live.EdgeUp[e] = tc.topo.edges[e].To != NodeID(x)
		}
		for _, up := range []bool{true, false, true} {
			live.NodeUp[x] = up
			if err := r.Recompute(context.Background(), live, nil); err != nil {
				t.Fatal(err)
			}
			matchReference(t, fmt.Sprintf("node %d up=%v", x, up), r, tc, 0.25, live, nil)
		}
	}
}

// TestRouterOverflowingCostsMatchReference prices every queued edge at
// +Inf: Dijkstra cannot cross such an edge, so reachability alone no
// longer decides a row, and every row must fall back to Dijkstra.
func TestRouterOverflowingCostsMatchReference(t *testing.T) {
	tc := campus(t, 4, 5)
	alpha := math.MaxFloat64
	r, err := NewRouter(tc.topo, tc.base, alpha, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	live := allUp(tc.topo)
	for k := 0; k < 50; k++ {
		_, queues := randomState(rng, tc.topo)
		if err := r.Recompute(context.Background(), live, queues); err != nil {
			t.Fatal(err)
		}
		matchReference(t, fmt.Sprintf("vector %d", k), r, tc, alpha, live, queues)
	}
}

// TestRouterChoiceRowsAreTheJunctions pins where the forced-hop table
// saves work: on the fully live default campus only a junction chooses
// (between trunk directions), so only junction rows run Dijkstra.
func TestRouterChoiceRowsAreTheJunctions(t *testing.T) {
	tc := campus(t, 4, 5)
	r, err := NewRouter(tc.topo, tc.base, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Recompute(context.Background(), allUp(tc.topo), nil); err != nil {
		t.Fatal(err)
	}
	for src, choice := range r.choice {
		if junction := tc.topo.Node(NodeID(src)).Junction; choice != junction {
			t.Errorf("node %d: choice = %v, want %v (junction)", src, choice, junction)
		}
	}
}
