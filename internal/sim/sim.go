// Package sim is a minimal deterministic discrete-event simulation kernel
// shared by the DHL system simulation (internal/dhlsys) and the astra-lite
// training simulator (internal/astra).
//
// Events are executed in timestamp order; ties break in scheduling order, so
// runs are fully deterministic. Simulated time is units.Seconds and never
// reads the wall clock.
//
// The kernel is allocation-flat: events live in a slot arena owned by the
// engine, ordered by a monotone radix queue whose buckets are lists
// threaded through the arena, with freed slots recycled through a free
// list. Steady-state schedule/fire cycles therefore allocate
// nothing — the arena grows only when the peak queue depth does. Callers
// hold generation-counted Handles rather than pointers, so Cancel and
// reschedule stay safe after a slot is reused (see DESIGN.md §10).
package sim

import (
	"errors"
	"fmt"

	"repro/internal/units"
)

// Handle is a cancellable reference to a scheduled event. The zero Handle
// is inert: it refers to no event and Cancel on it returns false. A Handle
// goes stale the moment its event fires or is cancelled — the slot's
// generation counter advances, so a stale Handle can never touch whatever
// event is recycled into the same slot.
type Handle struct {
	idx int32  // arena index + 1; 0 marks the zero Handle
	gen uint32 // slot generation the handle was minted against
}

// Event is the immutable view of a firing event handed to tracers.
type Event struct {
	Time units.Seconds
	Name string
}

// slot is one arena entry: either a queued event (fn != nil) linked into
// its radix bucket's list, or a free-list node (fn == nil, next chaining
// to the next free slot). Links are arena index+1, 0 at a list end.
type slot struct {
	time       units.Seconds
	key        uint64 // radixKey(time), the slot's place in the queue
	name       string
	fn         func()
	gen        uint32 // bumped on every free; invalidates outstanding Handles
	prev, next int32
}

// Engine is the simulation clock and event queue.
type Engine struct {
	now units.Seconds
	// arena owns every event slot; the radix queue (queue.go) orders the
	// queued ones through their links.
	arena     []slot
	nonEmpty  uint64 // bit b set iff buckets[b] holds a slot
	last      uint64 // radix base: the key of the last minimum taken
	queued    int
	freeHead  int32 // head of the free-slot list as index+1, 0 when empty
	processed int
	tracers   []func(Event)
	buckets   [64]bucket
}

// New returns an engine at time 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() units.Seconds { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() int { return e.processed }

// AddTracer appends a hook called before each event fires. Tracers are
// additive and fire in registration order, so independent consumers —
// fault logging, telemetry, debug prints — can observe the same engine
// without clobbering each other. A nil fn is ignored.
func (e *Engine) AddTracer(fn func(Event)) {
	if fn == nil {
		return
	}
	e.tracers = append(e.tracers, fn)
}

// ErrPastEvent is returned when scheduling before the current time.
var ErrPastEvent = errors.New("sim: cannot schedule event in the past")

// allocSlot returns a free slot as arena index+1, recycling the free list
// before growing the arena.
//
//dhllint:hotpath
func (e *Engine) allocSlot() int32 {
	if r := e.freeHead; r != 0 {
		e.freeHead = e.arena[r-1].next
		return r
	}
	e.arena = append(e.arena, slot{})
	return int32(len(e.arena))
}

// freeSlot returns a dequeued slot to the free list. The generation bump
// is the handle-safety invariant: every Handle minted for the old tenancy
// now mismatches and can never cancel the slot's next tenant.
//
//dhllint:hotpath
func (e *Engine) freeSlot(r int32) {
	s := &e.arena[r-1]
	s.fn = nil // drop the closure so the arena does not pin captured state
	s.name = ""
	s.gen++
	s.next = e.freeHead
	e.freeHead = r
}

// At schedules fn at absolute time t and returns a cancellable handle.
//
//dhllint:hotpath
func (e *Engine) At(t units.Seconds, name string, fn func()) (Handle, error) {
	if !(t >= e.now) { // a NaN time is in no one's future
		//dhllint:allow allocflow -- scheduling-in-the-past is a caller bug, never the steady state
		return Handle{}, fmt.Errorf("%w: t=%v now=%v (%s)", ErrPastEvent, t, e.now, name)
	}
	if fn == nil {
		//dhllint:allow allocflow -- nil-callback rejection is a caller bug, never the steady state
		return Handle{}, errors.New("sim: nil event callback")
	}
	r := e.allocSlot()
	s := &e.arena[r-1]
	s.time, s.key, s.name, s.fn = t, radixKey(t), name, fn
	e.link(r, s.key)
	e.queued++
	return Handle{idx: r, gen: s.gen}, nil
}

// After schedules fn after delay d.
//
//dhllint:hotpath
func (e *Engine) After(d units.Seconds, name string, fn func()) (Handle, error) {
	if d < 0 {
		//dhllint:allow allocflow -- negative-delay rejection is a caller bug, never the steady state
		return Handle{}, fmt.Errorf("%w: negative delay %v (%s)", ErrPastEvent, d, name)
	}
	return e.At(e.now+d, name, fn)
}

// MustAfter is After for delays known to be valid; it panics on error.
//
//dhllint:hotpath
func (e *Engine) MustAfter(d units.Seconds, name string, fn func()) Handle {
	h, err := e.After(d, name, fn)
	if err != nil {
		panic(err)
	}
	return h
}

// lookup resolves a handle to its slot (arena index+1) if it still refers
// to a queued event; ok is false for the zero Handle, fired or cancelled
// events, and recycled slots.
//
//dhllint:hotpath
func (e *Engine) lookup(h Handle) (int32, bool) {
	if h.idx <= 0 || int(h.idx) > len(e.arena) {
		return 0, false
	}
	s := &e.arena[h.idx-1]
	if s.gen != h.gen || s.fn == nil {
		return 0, false
	}
	return h.idx, true
}

// EventTime returns the scheduled time of a still-pending event; ok is
// false if the handle is stale (fired, cancelled, or recycled).
//
//dhllint:hotpath
func (e *Engine) EventTime(h Handle) (units.Seconds, bool) {
	r, ok := e.lookup(h)
	if !ok {
		return 0, false
	}
	return e.arena[r-1].time, true
}

// Cancel removes a pending event. Cancelling a fired, already-cancelled,
// or zero handle is a no-op returning false.
//
//dhllint:hotpath
func (e *Engine) Cancel(h Handle) bool {
	r, ok := e.lookup(h)
	if !ok {
		return false
	}
	e.remove(r)
	e.freeSlot(r)
	return true
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queued }

// Step executes the next event, if any, and reports whether one ran.
//
//dhllint:hotpath
func (e *Engine) Step() bool {
	if e.queued == 0 {
		return false
	}
	r := e.pop()
	s := &e.arena[r-1]
	e.now = s.time
	fn := s.fn
	if len(e.tracers) > 0 {
		ev := Event{Time: s.time, Name: s.name}
		for j := range e.tracers {
			e.tracers[j](ev)
		}
	}
	// Free before firing: the callback may schedule into (and recycle) this
	// slot, and a stale Handle to the fired event must already be dead.
	e.freeSlot(r)
	e.processed++
	fn()
	return true
}

// Run executes events until the queue drains, returning the count executed.
// maxEvents bounds runaway simulations; ≤0 means no bound.
func (e *Engine) Run(maxEvents int) (int, error) {
	n := 0
	for e.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			if e.queued > 0 {
				return n, fmt.Errorf("sim: event budget %d exhausted with %d pending", maxEvents, e.queued)
			}
			break
		}
	}
	return n, nil
}

// RunUntil executes events with Time ≤ t, then advances the clock to t.
// It peeks at the next time rather than popping it: a pop would move the
// radix base to that time, past a new now of t, and an event scheduled
// afterwards between the two would then be filed in the wrong bucket.
func (e *Engine) RunUntil(t units.Seconds) int {
	n := 0
	for e.queued > 0 && e.peekTime() <= t {
		e.Step()
		n++
	}
	if t > e.now {
		e.now = t
	}
	return n
}
