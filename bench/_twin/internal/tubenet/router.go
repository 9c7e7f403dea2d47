package tubenet

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/bench/_twin/internal/sweep"
	"repro/bench/_twin/internal/units"
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
// Recompute runs one Dijkstra per source node, fanned out on the sweep pool
// (input-ordered results, so the table is byte-identical at any worker
// count). Workers borrow per-source scratch buffers from a mutex-guarded
// free pool — the one piece of genuinely shared mutable state, annotated
// for the lockcheck analyzer.
type Router struct {
	topo *Topology
	// base is the congestion-free cost of each edge, in seconds.
	base []float64
	// alpha weights queue depth into edge cost.
	alpha float64
	// workers bounds the recompute fan-out (sweep.Workers semantics).
	workers int

	// next[src][dst] is the first-hop edge from src toward dst, NoEdge
	// when unreachable. Swapped wholesale by Recompute; read by the
	// single-threaded dispatch loop, so it needs no lock.
	next [][]EdgeID
	// epochs counts completed recomputes.
	epochs int

	mu sync.Mutex
	// free pools dijkstra scratch buffers across recompute workers.
	//
	//dhllint:guardedby mu
	free []*dijkstraScratch
}

// dijkstraScratch is one worker's per-source working set.
type dijkstraScratch struct {
	dist []float64
	hop  []EdgeID
	done []bool
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
// congestion weighting; workers ≤ 0 selects one worker.
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
	if workers < 1 {
		workers = 1
	}
	r := &Router{topo: topo, base: make([]float64, len(base)), alpha: alpha, workers: workers}
	for i, b := range base {
		if b <= 0 {
			return nil, fmt.Errorf("%w: edge %d has non-positive base cost %v", ErrBadTopology, i, b)
		}
		r.base[i] = float64(b)
	}
	return r, nil
}

// Epochs returns the number of completed recomputes.
func (r *Router) Epochs() int { return r.epochs }

// NextHop returns the first-hop edge from src toward dst, or NoEdge when
// dst is unreachable under the last recompute's liveness. Call Recompute
// at least once first.
//
//dhllint:hotpath
func (r *Router) NextHop(src, dst NodeID) EdgeID {
	if r.next == nil {
		return NoEdge
	}
	return r.next[src][dst]
}

// getScratch borrows a scratch buffer from the shared pool, growing the
// pool when all buffers are in flight.
func (r *Router) getScratch() *dijkstraScratch {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		s := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return s
	}
	n := r.topo.NumNodes()
	return &dijkstraScratch{dist: make([]float64, n), hop: make([]EdgeID, n), done: make([]bool, n)}
}

// putScratch returns a borrowed scratch buffer to the pool.
func (r *Router) putScratch(s *dijkstraScratch) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.free = append(r.free, s)
}

// Recompute rebuilds the full next-hop table from the current liveness and
// entry-queue snapshot. queues[e] is the number of carts waiting to enter
// edge e; nil means no congestion. One Dijkstra runs per source node,
// mapped over the sweep pool.
func (r *Router) Recompute(ctx context.Context, live Liveness, queues []int) error {
	n := r.topo.NumNodes()
	cost := make([]float64, r.topo.NumEdges())
	for e := range cost {
		q := 0.0
		if queues != nil {
			q = float64(queues[e])
		}
		cost[e] = r.base[e] * (1 + r.alpha*q)
	}
	srcs := make([]NodeID, n)
	for i := range srcs {
		srcs[i] = NodeID(i)
	}
	rows, err := sweep.Map(ctx, srcs, func(_ context.Context, src NodeID) ([]EdgeID, error) {
		s := r.getScratch()
		defer r.putScratch(s)
		r.dijkstra(s, src, live, cost)
		return append([]EdgeID(nil), s.hop...), nil
	}, sweep.Workers(r.workers))
	if err != nil {
		return err
	}
	r.next = rows
	r.epochs++
	return nil
}

// usable reports whether edge e may carry traffic under live: the edge is
// up, has capacity at all, and its destination node is up. (The source
// node's liveness gates departures in the dispatch layer; a dead node's
// table row is cleared in dijkstra.)
func (r *Router) usable(e EdgeID, live Liveness) bool {
	if r.topo.Edge(e).Capacity <= 0 {
		return false
	}
	if live.EdgeUp != nil && !live.EdgeUp[e] {
		return false
	}
	if live.NodeUp != nil && !live.NodeUp[r.topo.Edge(e).To] {
		return false
	}
	return true
}

// dijkstra fills s.hop with the first-hop edge from src to every node.
// The scan-based variant (O(N²)) keeps the selection order trivially
// deterministic: the next settled node is the unfinished node with the
// smallest (dist, NodeID); edges relax in ascending EdgeID order; and an
// exactly-equal-cost alternative wins only when its first-hop EdgeID is
// smaller — the explicit tie-break the equal-cost determinism test pins.
func (r *Router) dijkstra(s *dijkstraScratch, src NodeID, live Liveness, cost []float64) {
	n := r.topo.NumNodes()
	for i := 0; i < n; i++ {
		s.dist[i] = math.Inf(1)
		s.hop[i] = NoEdge
		s.done[i] = false
	}
	if live.NodeUp != nil && !live.NodeUp[src] {
		return // a dead node routes nowhere
	}
	s.dist[src] = 0
	for {
		u := NodeID(-1)
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if !s.done[i] && s.dist[i] < best {
				best = s.dist[i]
				u = NodeID(i)
			}
		}
		if u < 0 {
			return
		}
		s.done[u] = true
		for _, e := range r.topo.Out(u) {
			if !r.usable(e, live) {
				continue
			}
			v := r.topo.Edge(e).To
			if s.done[v] {
				continue
			}
			nd := s.dist[u] + cost[e]
			fh := s.hop[u]
			if u == src {
				fh = e
			}
			//dhllint:allow floateq -- exact-equality tie-break: both sides are sums of the identical cost terms, and the smaller-first-hop rule only needs to fire on bit-equal ties to stay deterministic
			tie := nd == s.dist[v] && fh < s.hop[v]
			if nd < s.dist[v] || tie {
				s.dist[v] = nd
				s.hop[v] = fh
			}
		}
	}
}
