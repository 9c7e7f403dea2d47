package tubenet

import (
	"errors"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/physics"
	"repro/internal/units"
)

// testEdge is a valid 500 m segment between two nodes.
func testEdge(from, to NodeID) Edge {
	return Edge{
		From: from, To: to,
		Length: 500, MaxSpeed: 200, Acceleration: 1000,
		Tube: physics.DefaultTube(), LIM: physics.DefaultLIM(),
		Capacity: 1, Line: NoLine,
	}
}

func TestNewTopologyValidation(t *testing.T) {
	nodes := []Node{{Name: "A", Docks: 2}, {Name: "B", Docks: 2}}
	if _, err := NewTopology(nil, nil); !errors.Is(err, ErrBadTopology) {
		t.Errorf("no nodes: %v", err)
	}
	if _, err := NewTopology([]Node{{Name: "A", Docks: 0}}, nil); !errors.Is(err, ErrBadTopology) {
		t.Errorf("dockless station: %v", err)
	}
	bad := testEdge(0, 2)
	if _, err := NewTopology(nodes, []Edge{bad}); !errors.Is(err, ErrBadTopology) {
		t.Errorf("out-of-range endpoint: %v", err)
	}
	loop := testEdge(0, 0)
	if _, err := NewTopology(nodes, []Edge{loop}); !errors.Is(err, ErrBadTopology) {
		t.Errorf("self-loop: %v", err)
	}
	short := testEdge(0, 1)
	short.Length = 10 // shorter than the 40 m ramp distance at 200 m/s: a triangular hop
	if _, err := NewTopology(nodes, []Edge{short}); err != nil {
		t.Errorf("track shorter than ramps: %v", err)
	}
	for _, mutate := range []func(*Edge){
		func(e *Edge) { e.Length = 0 },
		func(e *Edge) { e.MaxSpeed = -1 },
		func(e *Edge) { e.Acceleration = 0 },
	} {
		e := testEdge(0, 1)
		mutate(&e)
		if _, err := NewTopology(nodes, []Edge{e}); !errors.Is(err, ErrBadTopology) {
			t.Errorf("non-positive kinematics %+v: %v", e, err)
		}
	}
	ok, err := NewTopology(nodes, []Edge{testEdge(0, 1), testEdge(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if ok.NumNodes() != 2 || ok.NumEdges() != 2 {
		t.Errorf("sizes: %d nodes, %d edges", ok.NumNodes(), ok.NumEdges())
	}
	if got := ok.Out(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("Out(0) = %v", got)
	}
}

// linesOf groups topo's line edges by conflict domain, each in ascending
// EdgeID order.
func linesOf(topo *Topology) [][]EdgeID {
	var lines [][]EdgeID
	for e, ed := range topo.edges {
		if ed.Line == NoLine {
			continue
		}
		for len(lines) <= ed.Line {
			lines = append(lines, nil)
		}
		lines[ed.Line] = append(lines[ed.Line], EdgeID(e))
	}
	return lines
}

func TestDefaultCampusShape(t *testing.T) {
	topo, err := NewCampus(DefaultCampusConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 4 junctions + 4×5 spur stations; 8 trunk edges + 4×5×2 spur edges.
	if topo.NumNodes() != 24 {
		t.Errorf("NumNodes = %d, want 24", topo.NumNodes())
	}
	if topo.NumEdges() != 48 {
		t.Errorf("NumEdges = %d, want 48", topo.NumEdges())
	}
	lines := linesOf(topo)
	if len(lines) != 4 {
		t.Errorf("%d lines, want 4", len(lines))
	}
	if got := len(topo.Stations()); got != 20 {
		t.Errorf("Stations = %d, want 20 (junctions excluded)", got)
	}
	for j := 0; j < 4; j++ {
		if !topo.Node(NodeID(j)).Junction {
			t.Errorf("node %d should be a junction", j)
		}
		if len(lines[j]) != 10 {
			t.Errorf("line %d has %d edges, want 10", j, len(lines[j]))
		}
	}
	// Opposite directions of one rail segment carry the same span.
	for _, l := range []int{0, 1, 2, 3} {
		edges := lines[l]
		fwd, rev := topo.edges[edges[0]], topo.edges[edges[1]]
		if fwd.Span != rev.Span {
			t.Errorf("line %d: paired directions carry spans %+v vs %+v", l, fwd.Span, rev.Span)
		}
		if !fwd.Span.Overlaps(rev.Span) {
			t.Errorf("line %d: paired spans must conflict", l)
		}
	}
}

// TestSpanOverlapSemantics pins the reservation primitive: spans are
// inclusive ranges, endpoint-sharing counts as conflict (a cart on one
// segment blocks through traffic at its end stops), and NewSpan normalises
// argument order.
func TestSpanOverlapSemantics(t *testing.T) {
	cases := []struct {
		a, b Span
		want bool
	}{
		{Span{0, 1}, Span{1, 2}, true},  // shared endpoint stop
		{Span{0, 1}, Span{2, 3}, false}, // disjoint
		{Span{0, 5}, Span{2, 3}, true},  // containment
		{Span{2, 2}, Span{2, 2}, true},  // degenerate single-stop spans
		{Span{3, 4}, Span{0, 2}, false}, // disjoint, other order
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap must be symmetric: %v vs %v", c.b, c.a)
		}
	}
	if got := NewSpan(4, 1); got != (Span{Lo: 1, Hi: 4}) {
		t.Errorf("NewSpan(4, 1) = %+v, want normalised {1 4}", got)
	}
}

func TestCampusSpurSpansConflictAtSharedStations(t *testing.T) {
	topo, err := NewCampus(DefaultCampusConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent chain segments share a station index, so their inclusive
	// spans overlap.
	line := linesOf(topo)[0]
	var spans []Span
	for _, e := range line {
		spans = append(spans, topo.edges[e].Span)
	}
	if !spans[0].Overlaps(spans[2]) {
		t.Errorf("adjacent segments %+v and %+v must conflict at the shared station", spans[0], spans[2])
	}
	if spans[0].Overlaps(spans[4]) {
		t.Errorf("segments %+v and %+v share no station and must not conflict", spans[0], spans[4])
	}
}

func TestTransitTimes(t *testing.T) {
	topo, err := NewCampus(DefaultCampusConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := topo.TransitTimes(DefaultCartMass, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != topo.NumEdges() {
		t.Fatalf("got %d transit times for %d edges", len(base), topo.NumEdges())
	}
	for i, b := range base {
		if b <= 0 {
			t.Errorf("edge %d transit %v must be positive", i, b)
		}
	}
	// A leaky tube slows the segment down: the same campus with every
	// tube at ten times rough vacuum.
	nodes := make([]Node, topo.NumNodes())
	for n := range nodes {
		nodes[n] = topo.Node(NodeID(n))
	}
	edges := make([]Edge, topo.NumEdges())
	for e := range edges {
		edges[e] = topo.edges[e]
		edges[e].Tube.Pressure = 10 * physics.RoughVacuumPascal
	}
	leaky, err := NewTopology(nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := leaky.TransitTimes(DefaultCartMass, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(degraded[0] > base[0]) {
		t.Errorf("degraded vacuum transit %v should exceed nominal %v", degraded[0], base[0])
	}
}

func TestFromFatTree(t *testing.T) {
	ft := netmodel.DefaultFatTree()
	topo, err := FromFatTree(ft)
	if err != nil {
		t.Fatal(err)
	}
	// 2 aisles → 2 junctions; 4 racks/aisle → 4 spur stations each.
	if got, want := topo.NumNodes(), ft.Aisles+ft.Aisles*ft.RacksPerAisle; got != want {
		t.Errorf("NumNodes = %d, want %d", got, want)
	}
	bad := ft
	bad.Aisles = 0
	if _, err := FromFatTree(bad); err == nil {
		t.Error("invalid fat tree must be rejected")
	}
}

func TestCampusTransitTimesAreSane(t *testing.T) {
	topo, err := NewCampus(DefaultCampusConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := topo.TransitTimes(DefaultCartMass, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 500 m at 200 m/s with 0.2 s ramps ≈ 2.7 s; 2000 m trunk ≈ 10.2 s.
	spurT := base[8] // first spur edge (after 8 trunk edges)
	trunkT := base[0]
	if spurT < units.Seconds(2) || spurT > units.Seconds(4) {
		t.Errorf("spur transit %v outside sanity window", spurT)
	}
	if trunkT < units.Seconds(9) || trunkT > units.Seconds(12) {
		t.Errorf("trunk transit %v outside sanity window", trunkT)
	}
}

// conflictsOf decodes e's conflict mask into the edges it names, in bit
// order.
func conflictsOf(topo *Topology, e EdgeID) []EdgeID {
	s := topo.slotOf(e)
	var out []EdgeID
	for i, m := range append([]uint64{s.first}, s.rest...) {
		for ; m != 0; m &= m - 1 {
			out = append(out, topo.bitEdge[(int(s.lo)+i)*64+bits.TrailingZeros64(m)])
		}
	}
	return out
}

// TestConflictsMatchBruteForceOverlapScan checks each edge's conflict mask
// against a scan of every edge pair, on lines narrower and wider than one
// 64-bit word, and that bits ascend with EdgeID.
func TestConflictsMatchBruteForceOverlapScan(t *testing.T) {
	def, err := NewCampus(DefaultCampusConfig())
	if err != nil {
		t.Fatal(err)
	}
	topos := append(pinnedTopologies(t), namedTopology{"default", def})
	for _, tp := range topos {
		topo := tp.topo
		for e := EdgeID(0); int(e) < topo.NumEdges(); e++ {
			ed := topo.edges[e]
			var want []EdgeID
			if ed.Line != NoLine {
				for g := EdgeID(0); int(g) < topo.NumEdges(); g++ {
					if og := topo.edges[g]; og.Line == ed.Line && og.Span.Overlaps(ed.Span) {
						want = append(want, g)
					}
				}
			}
			if got := conflictsOf(topo, e); !slices.Equal(got, want) {
				t.Errorf("%s: conflicts of %d = %v, want %v", tp.name, e, got, want)
			}
			if b := topo.slotOf(e).bit; (b >= 0) != (ed.Line != NoLine) || b >= 0 && topo.bitEdge[b] != e {
				t.Errorf("%s: edge %d (line %d) has bit %d", tp.name, e, ed.Line, b)
			}
		}
	}
	// A default-campus spur edge conflicts with both directions of its own
	// rail segment and of each neighbouring one: 4 at a chain end, 6 inside.
	for e := EdgeID(0); int(e) < def.NumEdges(); e++ {
		if def.edges[e].Line == NoLine {
			continue
		}
		if n := len(conflictsOf(def, e)); n != 4 && n != 6 {
			t.Errorf("default campus edge %d has %d conflicts, want 4 or 6", e, n)
		}
	}
}
