package tubenet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/units"
)

// The line-admission invariant checker: a sim.Engine tracer that, before
// every event, checks the campus's single-rail bookkeeping against its
// definition, run over random line topologies under random junction and
// segment fault scripts.

// checkLineAdmission returns the first line-admission invariant c breaks,
// or "" when it keeps them all:
//   - no two occupied edges of one line have overlapping spans
//   - no edge holds more carts than its capacity
//   - no live edge that may admit a cart holds a non-empty entry queue
//     (releaseEdge's exactness invariant)
//   - each occ and queued bit equals "occupied" and "queue non-empty",
//     and the bits no edge owns are clear
//   - each edge's occupant list holds exactly the carts whose edge it is
//   - every cart is in at most one list (an occupant list, an entry
//     queue, a dock queue or the loiter list), and a waiting cart holds
//     no segment
//
// It reads the topology's edges, not its conflict masks, so a wrong mask
// shows as a broken invariant. It takes O(E log E + carts) per call: the
// occupied line edges are sorted by (line, span start), so overlaps are
// checked between neighbours and an edge's blockers found by binary
// search.
func checkLineAdmission(c *Campus) string {
	topo := c.topo
	var occupied []EdgeID
	for i := range topo.edges {
		e, ed := EdgeID(i), topo.edgeAt(EdgeID(i))
		if n := int(c.occupants[e].n); n > ed.Capacity {
			return fmt.Sprintf("edge %d holds %d carts, capacity %d", e, n, ed.Capacity)
		} else if n > 0 && ed.Line != NoLine {
			occupied = append(occupied, e)
		}
	}
	before := func(a, b *Edge) bool { return a.Line < b.Line || a.Line == b.Line && a.Span.Lo < b.Span.Lo }
	sort.Slice(occupied, func(i, j int) bool { return before(topo.edgeAt(occupied[i]), topo.edgeAt(occupied[j])) })
	for i := 1; i < len(occupied); i++ {
		a, b := topo.edgeAt(occupied[i-1]), topo.edgeAt(occupied[i])
		if a.Line == b.Line && a.Span.Overlaps(b.Span) {
			return fmt.Sprintf("line %d: occupied edges %d %v and %d %v overlap", a.Line, occupied[i-1], a.Span, occupied[i], b.Span)
		}
	}
	// blocked reports whether an occupied edge of e's line, e itself
	// included, holds a span overlapping e's. A line's occupied spans are
	// disjoint and sorted, so the last one starting at or before e's end
	// reaches furthest.
	blocked := func(ed *Edge) bool {
		end := &Edge{Line: ed.Line, Span: Span{Lo: ed.Span.Hi + 1}}
		i := sort.Search(len(occupied), func(i int) bool { return !before(topo.edgeAt(occupied[i]), end) })
		if i == 0 {
			return false
		}
		g := topo.edgeAt(occupied[i-1])
		return g.Line == ed.Line && g.Span.Overlaps(ed.Span)
	}
	for i := range topo.edges {
		e, ed := EdgeID(i), topo.edgeAt(EdgeID(i))
		n, queued := int(c.occupants[e].n), c.edgeQueue[e].n > 0
		if queued && c.edgeUp[e] && n < ed.Capacity && (ed.Line == NoLine || !blocked(ed)) {
			return fmt.Sprintf("live edge %d may admit but %d carts are queued", e, c.edgeQueue[e].n)
		}
		if ed.Line == NoLine {
			continue
		}
		b := topo.slotOf(e).bit
		if bitSet(c.occ, b) != (n > 0) || bitSet(c.queued, b) != queued {
			return fmt.Sprintf("edge %d: occ bit %v with %d carts, queued bit %v with %d queued",
				e, bitSet(c.occ, b), n, bitSet(c.queued, b), c.edgeQueue[e].n)
		}
	}
	for b, e := range topo.bitEdge {
		if e == NoEdge && (bitSet(c.occ, int32(b)) || bitSet(c.queued, int32(b))) {
			return fmt.Sprintf("bit %d belongs to no edge but is set", b)
		}
	}
	places := make([]int, len(c.carts))
	// walk visits q's carts, counting a place for each, and checks that
	// each is on edge `on` (NoEdge for a waiting cart).
	walk := func(q cartQueue, on EdgeID, what string) string {
		ci := q.head
		for k := int32(0); k < q.n; k++ {
			if k > 0 {
				ci = c.carts[ci].next
			}
			if places[ci]++; c.carts[ci].edge != on {
				return fmt.Sprintf("cart %d is in %s but on edge %d", ci, what, c.carts[ci].edge)
			}
		}
		if q.n > 0 && ci != q.tail {
			return fmt.Sprintf("%s ends at cart %d, its tail is %d", what, ci, q.tail)
		}
		return ""
	}
	for e, q := range c.occupants {
		if msg := walk(q, EdgeID(e), fmt.Sprintf("edge %d's occupant list", e)); msg != "" {
			return msg
		}
	}
	for ci := range c.carts {
		if e := c.carts[ci].edge; e != NoEdge && places[ci] == 0 {
			return fmt.Sprintf("cart %d is on edge %d but not in its occupant list", ci, e)
		}
	}
	for e, q := range c.edgeQueue {
		if msg := walk(q, NoEdge, fmt.Sprintf("edge %d's entry queue", e)); msg != "" {
			return msg
		}
	}
	for v, q := range c.dockQueue {
		if msg := walk(q, NoEdge, fmt.Sprintf("node %d's dock queue", v)); msg != "" {
			return msg
		}
	}
	if msg := walk(c.loiter, NoEdge, "the loiter list"); msg != "" {
		return msg
	}
	for ci, n := range places {
		if n > 1 {
			return fmt.Sprintf("cart %d is in %d lists", ci, n)
		}
	}
	return ""
}

// bitSet reports whether bit b of the mask words is set.
func bitSet(words []uint64, b int32) bool { return words[b>>6]&(1<<(b&63)) != 0 }

// lineScenario is a campus run decoded from a stream of choices: a
// topology of single-rail lines and dual-rail trunks, a fleet, and a
// junction and segment fault script.
type lineScenario struct {
	opt    Options
	script faults.Script
}

// widestLine returns the most edges any one line of topo holds.
func widestLine(topo *Topology) int {
	n := map[int]int{}
	widest := 0
	for _, e := range topo.edges {
		if e.Line != NoLine {
			n[e.Line]++
			widest = max(widest, n[e.Line])
		}
	}
	return widest
}

// decodeLineScenario builds a scenario from draw, which returns a choice
// in [0, n). Every choice yields a valid scenario. It has zero to three
// lines, each a path over randomly chosen nodes, so lines cross at shared
// nodes; their edges mix span widths 0 to 3 and capacities 0 to 3. When
// the first choice is 0, line 0 is 66 to 73 stops long, so it holds more
// than 64 edges.
func decodeLineScenario(draw func(n int) int) (lineScenario, error) {
	wide := draw(2) == 0
	nodes := make([]Node, 2+draw(7))
	for i := range nodes {
		nodes[i] = Node{Name: fmt.Sprintf("N%d", i), Docks: 1 + draw(3)}
	}
	for i := draw(3); i > 0; i-- {
		nodes = append(nodes, Node{Name: fmt.Sprintf("J%d", len(nodes)), Docks: draw(3), Junction: true})
	}
	node := func(not NodeID) NodeID {
		v := NodeID(draw(len(nodes) - 1))
		if v >= not {
			v++
		}
		return v
	}
	spans := [...]func(p int) Span{
		func(p int) Span { return NewSpan(p, p+1) },
		func(p int) Span { return NewSpan(p, p+1) },
		func(p int) Span { return NewSpan(p, p) },
		func(p int) Span { return NewSpan(p-1, p+1) },
		func(p int) Span { return NewSpan(p, p+3) },
	}
	capacities := [...]int{1, 1, 1, 2, 3, 0}
	var edges []Edge
	lines := draw(4)
	if wide {
		lines = max(lines, 1)
	}
	for line := 0; line < lines; line++ {
		stops := 2 + draw(6)
		if wide && line == 0 {
			stops = 66 + draw(8)
		}
		at := NodeID(draw(len(nodes)))
		for p := 0; p+1 < stops; p++ {
			next := node(at)
			sp := spans[draw(len(spans))](p)
			fwd := testEdge(at, next)
			fwd.Line, fwd.Span, fwd.Capacity = line, sp, capacities[draw(len(capacities))]
			back := testEdge(next, at)
			back.Line, back.Span, back.Capacity = line, sp, capacities[draw(len(capacities))]
			// Most segments run both ways; some are one-way.
			switch draw(6) {
			case 0:
				edges = append(edges, fwd)
			case 1:
				edges = append(edges, back)
			default:
				edges = append(edges, fwd, back)
			}
			at = next
		}
	}
	for i := draw(4); i > 0; i-- {
		a := NodeID(draw(len(nodes)))
		b := node(a)
		fwd, back := testEdge(a, b), testEdge(b, a)
		fwd.Capacity, back.Capacity = 1+draw(3), 1+draw(3)
		edges = append(edges, fwd, back)
	}
	topo, err := NewTopology(nodes, edges)
	if err != nil {
		return lineScenario{}, err
	}
	sc := lineScenario{opt: Options{
		Topo:         topo,
		Carts:        1 + draw(48),
		TripsPerCart: 1 + draw(6),
		Seed:         int64(draw(1 << 16)),
		EpochEvery:   [...]units.Seconds{-1, 5, 30}[draw(3)],
	}}
	sc.script.Name = "line-admission"
	for i := draw(16); i > 0; i-- {
		f := faults.Fault{
			Kind:     faults.JunctionFailure,
			At:       units.Seconds(draw(600)) / 10,
			Duration: 0.5 + units.Seconds(draw(400))/10,
			Station:  draw(len(nodes)),
		}
		if len(edges) > 0 && draw(3) > 0 {
			f.Kind, f.Station, f.Segment = faults.TubeSegmentFailure, 0, draw(len(edges))
		}
		sc.script.Faults = append(sc.script.Faults, f)
	}
	return sc, nil
}

// runLineScenario runs sc with the invariant checker traced before every
// event and once more at the end, failing t on the first broken one.
func runLineScenario(t *testing.T, sc lineScenario) {
	t.Helper()
	c, err := New(sc.opt)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(c.Engine(), c, sc.script)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(); err != nil {
		t.Fatal(err)
	}
	c.Engine().AddTracer(func(ev sim.Event) {
		if msg := checkLineAdmission(c); msg != "" {
			t.Fatalf("before %s at t=%v: %s", ev.Name, ev.Time, msg)
		}
	})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Engine().Run(1 << 20); err != nil {
		t.Fatal(err)
	}
	if msg := checkLineAdmission(c); msg != "" {
		t.Fatalf("at the end: %s", msg)
	}
}

// TestLineAdmissionInvariantsUnderRandomFaults runs the checker over
// seeded random line topologies, fleets and fault scripts, about half of
// them with a line wider than one 64-bit mask word.
func TestLineAdmissionInvariantsUnderRandomFaults(t *testing.T) {
	wide := 0
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc, err := decodeLineScenario(rng.Intn)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if widestLine(sc.opt.Topo) > 64 {
			wide++
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runLineScenario(t, sc) })
	}
	if wide < 30 {
		t.Errorf("only %d of 150 scenarios have a line wider than 64 edges", wide)
	}
}

// lineAdmissionSeeds are FuzzLineAdmission's seed corpus.
var lineAdmissionSeeds = [][]byte{
	// Empty: every choice 0, so a 66-stop line 0 and the smallest rest.
	{},
	// A short line, three stations, a trunk pair and a few faults.
	{1, 1, 1, 2, 4, 3, 0, 1, 2, 0, 3, 2, 1, 4, 3, 2, 1, 0, 2, 2, 1, 8, 3, 5, 200, 7, 9, 40, 1, 2, 30, 90, 0},
	// A wide line 0 crossed by two short lines, under segment faults.
	{0, 5, 2, 1, 2, 3, 4, 1, 2, 0, 5, 3, 1, 2, 4, 3, 0, 1, 5, 2, 3, 1, 4, 0, 2, 3, 5, 1, 0, 2, 4, 1, 3, 5, 2, 0, 1, 4, 2, 3},
}

// FuzzLineAdmission decodes bytes into a topology, a fleet and a fault
// script, and runs the line-admission invariant checker over the run.
// Each byte is one choice, taken modulo its range; once the bytes run out
// every choice is 0.
func FuzzLineAdmission(f *testing.F) {
	for _, b := range lineAdmissionSeeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 4096 {
			return
		}
		sc, err := decodeLineScenario(func(n int) int {
			if len(b) == 0 {
				return 0
			}
			v := int(b[0]) % n
			b = b[1:]
			return v
		})
		if err != nil {
			t.Fatal(err)
		}
		runLineScenario(t, sc)
	})
}
