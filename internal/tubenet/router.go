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
// given liveness, priced once each, then runs one Dijkstra per source
// node on the calling goroutine. Each Dijkstra settles nodes from its
// frontier (reached, unsettled nodes) in smallest-(dist, NodeID) order.
// Every buffer is sized in NewRouter, so a recompute allocates nothing.
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
// costs (seconds; from Topology.TransitTimes). alpha ≤ 0 disables
// congestion weighting. workers is accepted for API stability and unused:
// a whole recompute of the default campus takes about as long as fanning
// it out to goroutines would cost, so it runs sequentially.
func NewRouter(topo *Topology, base []units.Seconds, alpha float64, workers int) (*Router, error) {
	if topo == nil {
		return nil, fmt.Errorf("%w: nil topology", ErrBadTopology)
	}
	if len(base) != topo.NumEdges() {
		return nil, fmt.Errorf("%w: %d base costs for %d edges", ErrBadTopology, len(base), topo.NumEdges())
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
	}
	for i, b := range base {
		if b <= 0 {
			return nil, fmt.Errorf("%w: edge %d has non-positive base cost %v", ErrBadTopology, i, b)
		}
		r.base[i] = float64(b)
		ed := topo.edgeAt(EdgeID(i))
		r.to[i] = ed.To
		r.hasCap[i] = ed.Capacity > 0
	}
	for i := range r.next {
		r.next[i] = NoEdge
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
	for u := 0; u < r.n; u++ {
		r.off[u] = int32(len(r.arcs))
		for _, e := range r.topo.Out(NodeID(u)) {
			if !r.usable(e, live) {
				continue
			}
			q := 0.0
			if queues != nil {
				q = float64(queues[e])
			}
			r.arcs = append(r.arcs, arc{to: r.to[e], e: e, cost: r.base[e] * (1 + r.alpha*q)})
		}
	}
	r.off[r.n] = int32(len(r.arcs))
	for src := 0; src < r.n; src++ {
		r.dijkstra(NodeID(src), live, r.back[src*r.n:(src+1)*r.n])
	}
	r.next, r.back = r.back, r.next
	r.epochs++
	return nil
}

// usable reports whether edge e may carry traffic under live: the edge is
// up, has capacity at all, and its destination node is up. (The source
// node's liveness gates departures in the dispatch layer; a dead node's
// table row is cleared in dijkstra.)
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
func (r *Router) dijkstra(src NodeID, live Liveness, hop []EdgeID) {
	dist, done := r.dist, r.done
	for i := range hop {
		dist[i] = math.Inf(1)
		hop[i] = NoEdge
		done[i] = false
	}
	if live.NodeUp != nil && !live.NodeUp[src] {
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
