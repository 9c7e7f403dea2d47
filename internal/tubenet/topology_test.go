package tubenet

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/multistop"
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
	short.Length = 10 // shorter than the 40 m ramp distance at 200 m/s
	if _, err := NewTopology(nodes, []Edge{short}); !errors.Is(err, ErrBadTopology) {
		t.Errorf("track shorter than ramps: %v", err)
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
	if topo.NumLines() != 4 {
		t.Errorf("NumLines = %d, want 4", topo.NumLines())
	}
	if got := len(topo.Stations()); got != 20 {
		t.Errorf("Stations = %d, want 20 (junctions excluded)", got)
	}
	for j := 0; j < 4; j++ {
		if !topo.Node(NodeID(j)).Junction {
			t.Errorf("node %d should be a junction", j)
		}
		if len(topo.LineEdges(j)) != 10 {
			t.Errorf("line %d has %d edges, want 10", j, len(topo.LineEdges(j)))
		}
	}
	// Opposite directions of one rail segment carry the same span.
	for _, l := range []int{0, 1, 2, 3} {
		edges := topo.LineEdges(l)
		fwd, rev := topo.Edge(edges[0]), topo.Edge(edges[1])
		if fwd.Span != rev.Span {
			t.Errorf("line %d: paired directions carry spans %+v vs %+v", l, fwd.Span, rev.Span)
		}
		if !fwd.Span.Overlaps(rev.Span) {
			t.Errorf("line %d: paired spans must conflict", l)
		}
	}
}

func TestCampusSpanSemanticsMatchMultistop(t *testing.T) {
	topo, err := NewCampus(DefaultCampusConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent chain segments share a station index, so their inclusive
	// spans overlap — multistop's conflict rule.
	line := topo.LineEdges(0)
	var spans []multistop.Span
	for _, e := range line {
		spans = append(spans, topo.Edge(e).Span)
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
	// A leaky tube slows the segment down.
	cfg := DefaultCampusConfig()
	cfg.Tube.Pressure = 10 * physics.RoughVacuumPascal
	leaky, err := NewCampus(cfg)
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
	topo, err := FromFatTree(ft, DefaultCampusConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 2 aisles → 2 junctions; 4 racks/aisle → 4 spur stations each.
	if got, want := topo.NumNodes(), ft.Aisles+ft.Aisles*ft.RacksPerAisle; got != want {
		t.Errorf("NumNodes = %d, want %d", got, want)
	}
	bad := ft
	bad.Aisles = 0
	if _, err := FromFatTree(bad, DefaultCampusConfig()); err == nil {
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

func TestConflictsMatchBruteForceOverlapScan(t *testing.T) {
	def, err := NewCampus(DefaultCampusConfig())
	if err != nil {
		t.Fatal(err)
	}
	topos := append(pinnedTopologies(t), namedTopology{"default", def})
	for _, tp := range topos {
		topo := tp.topo
		for e := EdgeID(0); int(e) < topo.NumEdges(); e++ {
			ed := topo.Edge(e)
			var want []EdgeID
			if ed.Line != NoLine {
				for g := EdgeID(0); int(g) < topo.NumEdges(); g++ {
					if og := topo.Edge(g); og.Line == ed.Line && og.Span.Overlaps(ed.Span) {
						want = append(want, g)
					}
				}
			}
			if got := topo.conflictsOf(e); !slices.Equal(got, want) {
				t.Errorf("%s: conflictsOf(%d) = %v, want %v", tp.name, e, got, want)
			}
		}
	}
	// A default-campus spur edge conflicts with both directions of its own
	// rail segment and of each neighbouring one: 4 at a chain end, 6 inside.
	for e := EdgeID(0); int(e) < def.NumEdges(); e++ {
		if def.Edge(e).Line == NoLine {
			continue
		}
		if n := len(def.conflictsOf(e)); n != 4 && n != 6 {
			t.Errorf("default campus edge %d has %d conflicts, want 4 or 6", e, n)
		}
	}
}
