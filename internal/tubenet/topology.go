// Package tubenet models a campus-scale network of data-centre hyperloop
// tubes: a directed graph whose nodes are stations and junctions with
// finite dock capacity and whose edges are tube segments carrying their own
// LIM, vacuum, and length properties (internal/physics). A deterministic
// router dispatches carts over shortest paths with congestion-aware edge
// costs — queue-depth-weighted, recomputed at seeded epochs — and reroutes
// across tubes when internal/faults kills a junction or segment.
//
// The paper models one point-to-point tube between two halls and sketches
// two extensions in §VI: multi-stop tracks and a campus of interconnected
// tubes. Both are graphs here. A multi-stop track is a path graph whose
// edges share one single-rail line, and a campus is a trunk ring of such
// lines. The package composes per-edge physics from internal/physics,
// single-rail conflict domains (Span), chaos from internal/faults, and the
// sweep pool (internal/sweep) running replica studies — while every
// simulation stays byte-identical given a seed.
// A route recompute is sequential and allocation-free: one CSR adjacency
// of the usable edges, then a frontier-driven Dijkstra for each source
// whose routes depend on the costs; every other source's row is copied
// from a table of hops that reachability alone forces.
package tubenet

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/physics"
	"repro/internal/units"
)

// NodeID indexes a station or junction in a Topology.
type NodeID int32

// EdgeID indexes a directed tube segment in a Topology.
type EdgeID int32

// NoEdge marks the absence of a route.
const NoEdge EdgeID = -1

// NoLine marks a trunk edge outside any single-rail conflict domain.
const NoLine = -1

// Node is one station or junction. Junctions relay carts between tubes;
// stations additionally terminate trips at their docks.
type Node struct {
	// Name is a stable human-readable label ("J2", "J2.S3").
	Name string
	// Docks is the number of dock slots; a cart occupies one from docking
	// until its next departure.
	Docks int
	// Junction marks pure relay nodes. Trip destinations are drawn from
	// non-junction nodes only.
	Junction bool
}

// Edge is one directed tube segment.
type Edge struct {
	From, To NodeID
	// Length of the segment.
	Length units.Metres
	// MaxSpeed is the design cruise speed; vacuum degradation may cap the
	// effective speed below it (physics.DegradedCruiseSpeed).
	MaxSpeed units.MetresPerSecond
	// Acceleration of the segment's LIMs.
	Acceleration units.MetresPerSecond2
	// Tube is the segment's vacuum state.
	Tube physics.Tube
	// LIM drives launches into this segment.
	LIM physics.LIM
	// Capacity is the number of carts the segment holds concurrently. A
	// zero-capacity edge is permanently unusable and the router never
	// selects it (a construction artefact, e.g. a tube awaiting
	// commissioning).
	Capacity int
	// Line groups single-rail edges into a conflict domain: edges of the
	// same line whose Spans overlap may not be occupied simultaneously —
	// both directions of one physical rail share a span. NoLine marks
	// dual-rail trunk edges.
	Line int
	// Span is the edge's position on its line, meaningful when Line is not
	// NoLine.
	Span Span
}

// Span is an inclusive [Lo, Hi] stop-index range on a single-rail line. It
// is the unit of rail reservation: an edge between stops A and B holds the
// span [min(A,B), max(A,B)], endpoints included, so a cart on one segment
// blocks both directions of it and the segments sharing its end stops.
// Two edges of one line conflict iff their spans overlap, on a multi-stop
// path graph and on a campus spur alike.
type Span struct{ Lo, Hi int }

// NewSpan returns the span covering both stop indices, in either order.
func NewSpan(a, b int) Span {
	if a > b {
		a, b = b, a
	}
	return Span{Lo: a, Hi: b}
}

// Overlaps reports whether the two inclusive ranges share any stop.
func (s Span) Overlaps(o Span) bool { return s.Lo <= o.Hi && o.Lo <= s.Hi }

// Topology is an immutable directed graph of tube segments. Build one with
// NewTopology, NewCampus, or FromFatTree; it is safe to share read-only
// across sweep workers.
type Topology struct {
	nodes []Node
	edges []Edge
	// out[n] lists the edges leaving node n in ascending EdgeID order —
	// the deterministic relaxation order of the router.
	out [][]EdgeID
	// slots[e] places edge e in the line-bit space.
	slots []lineSlot
	// bitEdge maps each bit of the line-bit space back to its edge;
	// NoEdge on the unused tail bits of a line's last word.
	bitEdge []EdgeID
}

// lineSlot places an edge in the line-bit space: one bit per line edge,
// where each line owns whole 64-bit words and numbers its edges in
// ascending EdgeID order, so ascending bits are ascending EdgeIDs.
//
// An edge's conflict mask holds the bits of the edges of its line whose
// Span overlaps its own, itself included. It is kept as the window of
// words from the first that holds one of those bits to the last: first
// masks word lo, and rest the words after it. On a line of at most 64
// edges rest is nil. A trunk edge has bit -1 and an empty mask (first 0
// at word 0), so it conflicts with nothing.
type lineSlot struct {
	bit, lo int32
	first   uint64
	rest    []uint64
}

// ErrBadTopology reports a malformed graph.
var ErrBadTopology = errors.New("tubenet: invalid topology")

// NewTopology validates nodes and edges and builds the adjacency
// structure.
func NewTopology(nodes []Node, edges []Edge) (*Topology, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes", ErrBadTopology)
	}
	for i, n := range nodes {
		if n.Docks < 0 {
			return nil, fmt.Errorf("%w: node %d (%s) has negative docks", ErrBadTopology, i, n.Name)
		}
		if !n.Junction && n.Docks == 0 {
			return nil, fmt.Errorf("%w: station %d (%s) needs at least one dock", ErrBadTopology, i, n.Name)
		}
	}
	maxLine := -1
	for i, e := range edges {
		if e.From < 0 || int(e.From) >= len(nodes) || e.To < 0 || int(e.To) >= len(nodes) {
			return nil, fmt.Errorf("%w: edge %d endpoints (%d→%d) outside %d nodes", ErrBadTopology, i, e.From, e.To, len(nodes))
		}
		if e.From == e.To {
			return nil, fmt.Errorf("%w: edge %d is a self-loop at node %d", ErrBadTopology, i, e.From)
		}
		if e.Capacity < 0 {
			return nil, fmt.Errorf("%w: edge %d has negative capacity", ErrBadTopology, i)
		}
		if e.Line != NoLine {
			if e.Line < 0 {
				return nil, fmt.Errorf("%w: edge %d has line %d (want ≥ 0 or NoLine)", ErrBadTopology, i, e.Line)
			}
			if e.Span.Lo > e.Span.Hi {
				return nil, fmt.Errorf("%w: edge %d span not normalised (%d > %d)", ErrBadTopology, i, e.Span.Lo, e.Span.Hi)
			}
			if e.Line > maxLine {
				maxLine = e.Line
			}
		}
		// Per-edge kinematics need a positive length, speed and
		// acceleration; an edge too short to reach its speed flies a
		// triangular profile (physics.ExactTransit).
		if _, _, err := physics.ExactTransit(e.Length, e.MaxSpeed, e.Acceleration); err != nil {
			return nil, fmt.Errorf("%w: edge %d (%d→%d): %v", ErrBadTopology, i, e.From, e.To, err)
		}
	}
	t := &Topology{
		nodes: append([]Node(nil), nodes...),
		edges: append([]Edge(nil), edges...),
		out:   make([][]EdgeID, len(nodes)),
		slots: make([]lineSlot, len(edges)),
	}
	// lines[l] lists the edges of conflict domain l in ascending EdgeID
	// order.
	lines := make([][]EdgeID, maxLine+1)
	for i, e := range t.edges {
		t.out[e.From] = append(t.out[e.From], EdgeID(i))
		t.slots[i].bit = -1
		if e.Line != NoLine {
			lines[e.Line] = append(lines[e.Line], EdgeID(i))
		}
	}
	for _, line := range lines {
		base := len(t.bitEdge)
		for _, e := range line {
			t.slots[e].bit = int32(len(t.bitEdge))
			t.bitEdge = append(t.bitEdge, e)
		}
		for len(t.bitEdge)%64 != 0 {
			t.bitEdge = append(t.bitEdge, NoEdge)
		}
		mask := make([]uint64, (len(t.bitEdge)-base)/64)
		for _, e := range line {
			lo, hi := len(mask), 0
			for _, g := range line {
				if t.edges[g].Span.Overlaps(t.edges[e].Span) {
					b := int(t.slots[g].bit) - base
					mask[b/64] |= 1 << (b % 64)
					lo, hi = min(lo, b/64), max(hi, b/64)
				}
			}
			// e overlaps itself, so the window holds at least its word.
			s := &t.slots[e]
			s.lo, s.first = int32(base/64+lo), mask[lo]
			if hi > lo {
				s.rest = append([]uint64(nil), mask[lo+1:hi+1]...)
			}
			clear(mask)
		}
	}
	return t, nil
}

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumEdges returns the directed-edge count.
func (t *Topology) NumEdges() int { return len(t.edges) }

// Node returns node n.
func (t *Topology) Node(n NodeID) Node { return t.nodes[n] }

// edgeAt returns edge e by pointer, for hot loops that must not copy the
// struct. Callers must not mutate it.
func (t *Topology) edgeAt(e EdgeID) *Edge { return &t.edges[e] }

// Out returns the edges leaving n in ascending EdgeID order. The slice is
// owned by the topology; callers must not mutate it.
func (t *Topology) Out(n NodeID) []EdgeID { return t.out[n] }

// slotOf returns edge e's place in the line-bit space, by pointer for the
// dispatch hot loop. Callers must not mutate it.
func (t *Topology) slotOf(e EdgeID) *lineSlot { return &t.slots[e] }

// lineWords returns the number of 64-bit words in the line-bit space, at
// least one: a trunk edge's empty mask tests word 0.
func (t *Topology) lineWords() int { return max(len(t.bitEdge)/64, 1) }

// Stations returns the IDs of all non-junction nodes in ascending order —
// the trip-destination pool.
func (t *Topology) Stations() []NodeID {
	var out []NodeID
	for i, n := range t.nodes {
		if !n.Junction {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// TransitTimes computes each edge's base transit time for a cart of the
// given mass: the exact rest-to-rest run over the segment at the
// vacuum-degraded cruise speed (physics.DegradedCruiseSpeed with the given
// drag margin; ≤ 0 selects physics.DefaultDragMargin) — a trapezoid, or a
// triangle peaking below that speed on an edge too short to reach it
// (physics.ExactTransit). The result is the congestion-free cost vector of
// the router.
func (t *Topology) TransitTimes(mass units.Grams, margin float64) ([]units.Seconds, error) {
	out := make([]units.Seconds, len(t.edges))
	for i, e := range t.edges {
		v := physics.DegradedCruiseSpeed(e.Tube, mass, e.Acceleration, e.MaxSpeed, margin)
		_, transit, err := physics.ExactTransit(e.Length, v, e.Acceleration)
		if err != nil {
			return nil, fmt.Errorf("tubenet: edge %d: %w", i, err)
		}
		out[i] = transit
	}
	return out, nil
}

// CampusConfig parameterises the canonical campus generator: a ring of
// junctions joined by dual-rail trunk tubes, each junction serving a linear
// single-rail spur line of stations.
type CampusConfig struct {
	// Junctions on the trunk ring.
	Junctions int
	// SpurStations per junction.
	SpurStations int
}

// The campus's fixed tube shape: every node's dock count, and the cart
// capacity and length of each directed trunk edge. Spur segments are the
// paper's core.DefaultLength, and every segment runs at its per-tube
// cruise speed and acceleration over physics.DefaultTube and DefaultLIM.
const (
	campusDocksPerStation = 4
	campusTrunkCapacity   = 8
	campusTrunkLength     = units.Metres(2000)
)

// DefaultCampusConfig is a 4-junction ring with 5-station spurs — 24 nodes,
// 48 directed segments — using the paper's per-tube physics defaults.
func DefaultCampusConfig() CampusConfig {
	return CampusConfig{Junctions: 4, SpurStations: 5}
}

// NewCampus builds the ring-of-spurs campus topology. Junctions occupy node
// IDs [0, Junctions); station (j, k) is Junctions + j·SpurStations + k.
// Each spur line is one single-rail conflict domain: the edge between chain
// positions p and p+1 (junction at position 0) carries span [p, p+1] in
// both directions, so opposite directions of one rail segment — and
// adjacent segments sharing a station — exclude each other.
func NewCampus(cfg CampusConfig) (*Topology, error) {
	if cfg.Junctions < 1 || cfg.SpurStations < 1 {
		return nil, fmt.Errorf("%w: campus needs ≥ 1 junction and ≥ 1 spur station", ErrBadTopology)
	}
	J, S := cfg.Junctions, cfg.SpurStations
	nodes := make([]Node, 0, J+J*S)
	for j := 0; j < J; j++ {
		nodes = append(nodes, Node{Name: fmt.Sprintf("J%d", j), Docks: campusDocksPerStation, Junction: true})
	}
	for j := 0; j < J; j++ {
		for k := 0; k < S; k++ {
			nodes = append(nodes, Node{Name: fmt.Sprintf("J%d.S%d", j, k), Docks: campusDocksPerStation})
		}
	}
	tube, lim := physics.DefaultTube(), physics.DefaultLIM()
	trunk := func(from, to NodeID) Edge {
		return Edge{
			From: from, To: to,
			Length: campusTrunkLength, MaxSpeed: core.DefaultMaxSpeed, Acceleration: core.DefaultAcceleration,
			Tube: tube, LIM: lim,
			Capacity: campusTrunkCapacity, Line: NoLine,
		}
	}
	spur := func(from, to NodeID, line, pos int) Edge {
		return Edge{
			From: from, To: to,
			Length: core.DefaultLength, MaxSpeed: core.DefaultMaxSpeed, Acceleration: core.DefaultAcceleration,
			Tube: tube, LIM: lim,
			Capacity: 1, Line: line, Span: NewSpan(pos, pos+1),
		}
	}
	var edges []Edge
	// Trunk ring, both directions. A 2-junction ring would duplicate the
	// pair; a single junction has no trunk at all.
	for j := 0; j < J && J > 1; j++ {
		next := (j + 1) % J
		edges = append(edges, trunk(NodeID(j), NodeID(next)))
		edges = append(edges, trunk(NodeID(next), NodeID(j)))
		if J == 2 {
			break
		}
	}
	// Spur chains: junction (chain position 0) → S0 → S1 → …, both
	// directions over the shared rail.
	for j := 0; j < J; j++ {
		chain := func(pos int) NodeID {
			if pos == 0 {
				return NodeID(j)
			}
			return NodeID(J + j*S + pos - 1)
		}
		for p := 0; p < S; p++ {
			edges = append(edges, spur(chain(p), chain(p+1), j, p))
			edges = append(edges, spur(chain(p+1), chain(p), j, p))
		}
	}
	return NewTopology(nodes, edges)
}

// FromFatTree maps the paper's Figure 2 fat tree onto a campus: aisles
// become trunk-ring junctions and each aisle's racks become the stations of
// that junction's spur line, so the tube network mirrors the electrical
// topology it would relieve (netmodel computes the optical baseline over
// the same shape).
func FromFatTree(f netmodel.FatTree) (*Topology, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("tubenet: %w", err)
	}
	return NewCampus(CampusConfig{Junctions: f.Aisles, SpurStations: f.RacksPerAisle})
}
