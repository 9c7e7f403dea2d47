package sim

// Monotone radix queue over the slot arena. Every queued event has a
// 64-bit key, the IEEE-754 bits of its time (radixKey); for times ≥ 0 the
// bits sort like the times. last is the key of the most recent minimum
// taken from the queue, and no queued key is below it: At rejects a time
// before now, and last never passes now (see RunUntil). A queued slot
// sits in bucket bits.Len64(key ^ last), so bucket 0 holds the keys equal
// to last, and every key in bucket b agrees with last above bit b-1 and
// exceeds it there — so each bucket's keys are below every higher
// bucket's.
//
// Each bucket is a FIFO list threaded through slot.prev and slot.next,
// and keeps the least key in it. Popping takes the head of bucket 0.
// When bucket 0 is empty, pop moves last to the least key of the lowest
// non-empty bucket and advance re-links that bucket's slots, in list
// order, into the (empty) buckets below it; the higher buckets stay
// valid, since the new last agrees with the old one on every bit they
// depend on. Equal keys always share a bucket and are never reordered
// within it, so ties fire in scheduling order with no sequence number to
// compare.
//
// List ends are arena index+1 with 0 for none, as in Handle, so the zero
// Engine is an empty queue.

import (
	"math"
	"math/bits"

	"repro/internal/units"
)

// bucket is one radix bucket: its first and last slot, 0 when empty, and
// the least key among its slots while it has any.
type bucket struct {
	head, tail int32
	min        uint64
}

// radixKey is the queue key of a time t ≥ 0: its bits with the sign bit
// cleared, which turns −0 into +0 and leaves every other such time as is.
func radixKey(t units.Seconds) uint64 { return math.Float64bits(float64(t)) &^ (1 << 63) }

// link appends slot r, whose key is k, to the bucket k belongs in.
//
//dhllint:hotpath
func (e *Engine) link(r int32, k uint64) {
	b := bits.Len64(k ^ e.last)
	q := &e.buckets[b]
	s := &e.arena[r-1]
	s.prev, s.next = q.tail, 0
	if q.tail == 0 {
		q.head, q.min = r, k
		e.nonEmpty |= 1 << b
	} else {
		e.arena[q.tail-1].next = r
		q.min = min(q.min, k)
	}
	q.tail = r
}

// remove unlinks queued slot r from its bucket (Cancel's path).
//
//dhllint:hotpath
func (e *Engine) remove(r int32) {
	s := &e.arena[r-1]
	k := s.key
	b := bits.Len64(k ^ e.last)
	q := &e.buckets[b]
	if s.prev == 0 {
		q.head = s.next
	} else {
		e.arena[s.prev-1].next = s.next
	}
	if s.next == 0 {
		q.tail = s.prev
	} else {
		e.arena[s.next-1].prev = s.prev
	}
	switch {
	case q.head == 0:
		e.nonEmpty &^= 1 << b
	case k == q.min:
		q.min = math.MaxUint64
		for r := q.head; r != 0; r = e.arena[r-1].next {
			q.min = min(q.min, e.arena[r-1].key)
		}
	}
	e.queued--
}

// pop dequeues and returns the earliest slot, the first scheduled among
// equal times. The queue must not be empty.
//
//dhllint:hotpath
func (e *Engine) pop() int32 {
	q := &e.buckets[0]
	if q.head == 0 {
		b := bits.TrailingZeros64(e.nonEmpty)
		l := &e.buckets[b]
		e.last = l.min
		if l.head == l.tail {
			// One slot: it is the minimum, so take it out directly.
			r := l.head
			l.head, l.tail = 0, 0
			e.nonEmpty &^= 1 << b
			e.queued--
			return r
		}
		e.advance(b)
	}
	r := q.head
	next := e.arena[r-1].next
	q.head = next
	if next == 0 {
		q.tail = 0
		e.nonEmpty &^= 1
	} else {
		e.arena[next-1].prev = 0
	}
	e.queued--
	return r
}

// advance re-links bucket b, the lowest non-empty one, below it once last
// has moved to its least key.
//
//dhllint:hotpath
func (e *Engine) advance(b int) {
	r := e.buckets[b].head
	e.buckets[b].head, e.buckets[b].tail = 0, 0
	e.nonEmpty &^= 1 << b
	for r != 0 {
		s := &e.arena[r-1]
		next := s.next
		e.link(r, s.key)
		r = next
	}
}

// peekTime returns the earliest queued time without moving last. The
// queue must not be empty.
func (e *Engine) peekTime() units.Seconds {
	if r := e.buckets[0].head; r != 0 {
		return e.arena[r-1].time
	}
	return units.Seconds(math.Float64frombits(e.buckets[bits.TrailingZeros64(e.nonEmpty)].min))
}
