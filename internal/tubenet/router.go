package tubenet

import (
	"context"
	"fmt"
	"math"

	"repro/internal/units"
)

// Router computes and serves next-hop routing tables over a Topology.
//
// Edge costs are congestion-aware: cost(e) = base(e) · (1 + α·queue(e)),
// where base(e) is the congestion-free transit time and queue(e) the entry
// queue depth at recompute time. Tables are recomputed at seeded epochs and
// immediately on fault inject/recover, never incrementally, so the routing
// state is always a pure function of (topology, liveness, queue snapshot) —
// the determinism contract.
//
// Recompute first builds a CSR adjacency of the edges usable under the
// given liveness, priced once each. A row whose every entry is forced by
// reachability alone is copied from the forced-hop table, which is rebuilt
// only when the usable edges or the live nodes change; Dijkstra runs, on
// the calling goroutine, only for the rows that hold a choice. Each
// Dijkstra settles nodes from its frontier (reached, unsettled nodes) in
// smallest-(dist, NodeID) order. Every buffer is sized in NewRouter, so a
// recompute allocates nothing.
type Router struct {
	topo *Topology
	n    int
	// base is the congestion-free cost of each edge, in seconds.
	base []float64
	// alpha weights queue depth into edge cost.
	alpha float64
	// to[e] is edge e's head node; hasCap[e] is false for zero-capacity
	// edges, which never route.
	to     []NodeID
	hasCap []bool

	// next[src*n+dst] is the first-hop edge from src toward dst, NoEdge
	// when unreachable. Recompute fills back and swaps the two; both are
	// read by the single-threaded dispatch loop only, so need no lock.
	next, back []EdgeID
	// epochs counts completed recomputes.
	epochs int

	// Recompute scratch: the usable edges of node u are
	// arcs[off[u]:off[u+1]], in ascending EdgeID order.
	off   []int32
	arcs  []arc
	dist  []float64
	done  []bool
	front []NodeID

	// forced[src*n+dst] is the first hop of every src→dst path that does
	// not return to src, NoEdge when there is no path, under the usable
	// edges and live nodes recorded in usableAt and upAt. choice[src] marks
	// a row where paths to some dst leave src over two or more edges; its
	// forced entries are not kept. The zero record (no usable edge, every
	// node down) matches the all-NoEdge table NewRouter starts with.
	forced   []EdgeID
	choice   []bool
	usableAt []bool
	upAt     []bool
}

// arc is one usable edge as Dijkstra relaxes it.
type arc struct {
	to   NodeID
	e    EdgeID
	cost float64
}

// Liveness is the fault-state view the router plans against: dead nodes
// are excluded as waypoints and destinations, dead edges are never
// selected.
type Liveness struct {
	NodeUp []bool
	EdgeUp []bool
}

// NewRouter builds a router over topo with the given congestion-free edge
// costs (seconds; from Topology.TransitTimes), each positive and finite.
// alpha ≤ 0 disables congestion weighting; a NaN or +Inf alpha is
// rejected. workers is accepted for API stability and unused: a whole
// recompute of the default campus takes about as long as fanning it out
// to goroutines would cost, so it runs sequentially.
func NewRouter(topo *Topology, base []units.Seconds, alpha float64, workers int) (*Router, error) {
	if topo == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrBadTopology)
	}
	if len(base) != topo.NumEdges() {
		return nil, fmt.Errorf("%w: %d base costs for %d edges", ErrBadTopology, len(base), topo.NumEdges())
	}
	if math.IsNaN(alpha) || math.IsInf(alpha, 1) {
		return nil, fmt.Errorf("%w: congestion weight %v is not finite", ErrBadTopology, alpha)
	}
	if alpha < 0 {
		alpha = 0
	}
	n, m := topo.NumNodes(), topo.NumEdges()
	r := &Router{
		topo: topo, n: n, base: make([]float64, m), alpha: alpha,
		to: make([]NodeID, m), hasCap: make([]bool, m),
		next: make([]EdgeID, n*n), back: make([]EdgeID, n*n),
		off: make([]int32, n+1), arcs: make([]arc, 0, m),
		dist: make([]float64, n), done: make([]bool, n), front: make([]NodeID, 0, n),
		forced: make([]EdgeID, n*n), choice: make([]bool, n),
		usableAt: make([]bool, m), upAt: make([]bool, n),
	}
	for i, b := range base {
		if !(b > 0) || math.IsInf(float64(b), 1) {
			return nil, fmt.Errorf("%w: edge %d has base cost %v, want positive and finite", ErrBadTopology, i, b)
		}
		r.base[i] = float64(b)
		ed := topo.edgeAt(EdgeID(i))
		r.to[i] = ed.To
		r.hasCap[i] = ed.Capacity > 0
	}
	for i := range r.next {
		r.next[i] = NoEdge
		r.forced[i] = NoEdge
	}
	return r, nil
}

// Epochs returns the number of completed recomputes.
func (r *Router) Epochs() int { return r.epochs }

// NextHop returns the first-hop edge from src toward dst, or NoEdge when
// dst is unreachable under the last recompute's liveness (or before the
// first recompute).
//
//dhllint:hotpath
func (r *Router) NextHop(src, dst NodeID) EdgeID {
	return r.next[int(src)*r.n+int(dst)]
}

// Recompute rebuilds the full next-hop table from the current liveness and
// entry-queue snapshot. queues[e] is the number of carts waiting to enter
// edge e; nil means no congestion. It fails only when ctx is already done,
// leaving the previous table in place.
//
//dhllint:hotpath
func (r *Router) Recompute(ctx context.Context, live Liveness, queues []int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.arcs = r.arcs[:0]
	stale := false
	total := 0.0 // Σ|cost| over the usable edges
	for u := 0; u < r.n; u++ {
		r.off[u] = int32(len(r.arcs))
		for _, e := range r.topo.Out(NodeID(u)) {
			ok := r.usable(e, live)
			if ok != r.usableAt[e] {
				r.usableAt[e], stale = ok, true
			}
			if !ok {
				continue
			}
			q := 0.0
			if queues != nil {
				q = float64(queues[e])
			}
			c := r.base[e] * (1 + r.alpha*q)
			total += math.Abs(c)
			r.arcs = append(r.arcs, arc{to: r.to[e], e: e, cost: c})
		}
	}
	r.off[r.n] = int32(len(r.arcs))
	for u := range r.upAt {
		up := live.NodeUp == nil || live.NodeUp[u]
		if up != r.upAt[u] {
			r.upAt[u], stale = up, true
		}
	}
	if stale {
		r.rebuildForced()
	}
	// Forced rows need every path cost to stay finite; half the largest
	// float leaves room for rounding. Past it, Dijkstra runs every row.
	finite := total <= math.MaxFloat64/2
	for src := 0; src < r.n; src++ {
		row := r.back[src*r.n : (src+1)*r.n]
		if finite && !r.choice[src] {
			copy(row, r.forced[src*r.n:(src+1)*r.n])
			continue
		}
		r.dijkstra(NodeID(src), row)
	}
	r.next, r.back = r.back, r.next
	r.epochs++
	return nil
}

// rebuildForced refills forced and choice from the current CSR and upAt.
// Dijkstra never relaxes into its settled source, so the first hop it
// picks toward dst is an out-edge of src whose head reaches dst without
// passing src; and with finite costs it reaches every such dst. So a
// search from each out-edge's head, in the usable graph minus src, fixes
// every entry that only one out-edge reaches, whatever the costs. A row
// stops at its first contested entry, since Dijkstra recomputes it whole.
//
//dhllint:hotpath
func (r *Router) rebuildForced() {
	n, seen, queue := r.n, r.done, r.front[:r.n]
rows:
	for src := 0; src < n; src++ {
		row := r.forced[src*n : (src+1)*n]
		for i := range row {
			row[i] = NoEdge
		}
		r.choice[src] = false
		if !r.upAt[src] {
			continue // a dead node routes nowhere
		}
		for _, a := range r.arcs[r.off[src]:r.off[src+1]] {
			for i := range seen {
				seen[i] = false
			}
			seen[src], seen[a.to] = true, true
			queue[0] = a.to
			for head, tail := 0, 1; head < tail; head++ {
				v := queue[head]
				if row[v] != NoEdge {
					r.choice[src] = true
					continue rows
				}
				row[v] = a.e
				for _, b := range r.arcs[r.off[v]:r.off[v+1]] {
					if !seen[b.to] {
						seen[b.to] = true
						queue[tail] = b.to
						tail++
					}
				}
			}
		}
	}
}

// usable reports whether edge e may carry traffic under live: the edge is
// up, has capacity at all, and its destination node is up. (The source
// node's liveness gates departures in the dispatch layer; a dead node's
// table row is all NoEdge.)
//
//dhllint:hotpath
func (r *Router) usable(e EdgeID, live Liveness) bool {
	if !r.hasCap[e] {
		return false
	}
	if live.EdgeUp != nil && !live.EdgeUp[e] {
		return false
	}
	if live.NodeUp != nil && !live.NodeUp[r.to[e]] {
		return false
	}
	return true
}

// dijkstra fills hop with the first-hop edge from src to every node. The
// next settled node is the frontier node with the smallest (dist, NodeID);
// edges relax in ascending EdgeID order; and an exactly-equal-cost
// alternative wins only when its first-hop EdgeID is smaller — the
// explicit tie-break the equal-cost determinism test pins.
//
//dhllint:hotpath
func (r *Router) dijkstra(src NodeID, hop []EdgeID) {
	dist, done := r.dist, r.done
	for i := range hop {
		dist[i] = math.Inf(1)
		hop[i] = NoEdge
		done[i] = false
	}
	if !r.upAt[src] {
		return // a dead node routes nowhere
	}
	dist[src] = 0
	front := r.front[:1]
	front[0] = src
	for len(front) > 0 {
		bi := 0
		for i := 1; i < len(front); i++ {
			a, b := front[i], front[bi]
			//dhllint:allow floateq -- exact-equality tie-break: equal distances settle by smaller NodeID, the order a full scan of the nodes would give
			if dist[a] < dist[b] || dist[a] == dist[b] && a < b {
				bi = i
			}
		}
		u := front[bi]
		front[bi] = front[len(front)-1]
		front = front[:len(front)-1]
		done[u] = true
		for _, a := range r.arcs[r.off[u]:r.off[u+1]] {
			v := a.to
			if done[v] {
				continue
			}
			nd := dist[u] + a.cost
			fh := hop[u]
			if u == src {
				fh = a.e
			}
			//dhllint:allow floateq -- exact-equality tie-break: both sides are sums of the identical cost terms, and the smaller-first-hop rule only needs to fire on bit-equal ties to stay deterministic
			tie := nd == dist[v] && fh < hop[v]
			if nd < dist[v] || tie {
				if hop[v] == NoEdge {
					front = append(front, v) // first reached
				}
				dist[v] = nd
				hop[v] = fh
			}
		}
	}
	r.front = front
}
