package sim

// Index-based 4-ary heap over the slot arena. The heap stores arena
// indices; ordering is (slot.time, slot.seq), so ties in simulated time
// break in scheduling order — the kernel's determinism contract. A 4-ary
// layout halves the tree depth of a binary heap and keeps the four
// children of a node on one cache line of int32s, which is where an
// event kernel spends its time once events no longer allocate.
//
// Each queued slot records its heap position (slot.pos), so Cancel is
// O(log₄ n) by sift from the vacated position rather than a linear scan.

const heapArity = 4

// heapLess orders two arena slots: earlier time first, scheduling order
// breaking ties.
//
//dhllint:hotpath
func (e *Engine) heapLess(a, b int32) bool {
	sa, sb := &e.arena[a], &e.arena[b]
	if sa.time < sb.time {
		return true
	}
	if sb.time < sa.time {
		return false
	}
	return sa.seq < sb.seq
}

// heapPush enqueues arena slot i.
//
//dhllint:hotpath
func (e *Engine) heapPush(i int32) {
	e.arena[i].pos = int32(len(e.heap))
	e.heap = append(e.heap, i)
	e.siftUp(len(e.heap) - 1)
}

// heapPop dequeues and returns the root (earliest) slot index. The slot's
// pos is left stale; callers free or re-push it immediately.
//
//dhllint:hotpath
func (e *Engine) heapPop() int32 {
	root := e.heap[0]
	last := len(e.heap) - 1
	if last > 0 {
		e.heap[0] = e.heap[last]
		e.arena[e.heap[0]].pos = 0
	}
	e.heap = e.heap[:last]
	if last > 1 {
		e.siftDown(0)
	}
	return root
}

// heapRemove deletes the entry at heap position pos (Cancel's path).
//
//dhllint:hotpath
func (e *Engine) heapRemove(pos int32) {
	last := int32(len(e.heap) - 1)
	if pos != last {
		e.heap[pos] = e.heap[last]
		e.arena[e.heap[pos]].pos = pos
	}
	e.heap = e.heap[:last]
	if pos < last {
		if !e.siftDown(int(pos)) {
			e.siftUp(int(pos))
		}
	}
}

// siftUp restores the heap invariant upward from position i.
//
//dhllint:hotpath
func (e *Engine) siftUp(i int) {
	item := e.heap[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.heapLess(item, e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		e.arena[e.heap[i]].pos = int32(i)
		i = parent
	}
	e.heap[i] = item
	e.arena[item].pos = int32(i)
}

// siftDown restores the heap invariant downward from position i,
// reporting whether the item moved.
//
//dhllint:hotpath
func (e *Engine) siftDown(i int) bool {
	item := e.heap[i]
	n := len(e.heap)
	start := i
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if e.heapLess(e.heap[c], e.heap[best]) {
				best = c
			}
		}
		if !e.heapLess(e.heap[best], item) {
			break
		}
		e.heap[i] = e.heap[best]
		e.arena[e.heap[i]].pos = int32(i)
		i = best
	}
	e.heap[i] = item
	e.arena[item].pos = int32(i)
	return i > start
}
