package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/units"
)

// The differential harness behind FuzzEngineOrder: a byte string decodes
// into a program of At, After, Cancel, EventTime, Step and RunUntil
// calls, run against an Engine and against a reference that keeps every
// event in a list and fires the live one with the least (time, seq) by a
// linear scan. Every firing, Now, Pending and EventTime must agree.

// Program opcodes; each but opStep reads one operand byte.
const (
	opAt        = iota // At(time(b))
	opAfter            // After(delay(b))
	opChain            // After(delay(b)), rescheduling itself from its callback
	opCancel           // Cancel(handle(b))
	opEventTime        // EventTime(handle(b))
	opStep             // Step()
	opRunUntil         // RunUntil(time(b))
	numOps
)

// delays are the relative offsets an operand byte selects: heavy on ties
// and zero delays, with extremes and a negative (rejected) one.
var delays = [16]float64{0, 0, 0, 0.5, 1, 1, 1, 2, 2.5, 3, 10, 1e-9, 1e9, math.Inf(1), -1, 0.25}

// absolutes are the times an operand byte with its top bit set selects.
var absolutes = [8]float64{math.Copysign(0, -1), 0, 5, 7, 10, 10.5, math.Inf(1), math.NaN()}

// refEvent is the reference's record of one scheduling call.
type refEvent struct {
	time units.Seconds
	live bool // queued: scheduled, neither fired nor cancelled
	h    Handle
}

// model runs one program on an Engine and on the reference side by side.
type model struct {
	t     testing.TB
	e     *Engine
	now   units.Seconds
	evs   []refEvent // indexed by scheduling order, the reference's seq
	fired int
}

func sameTime(a, b units.Seconds) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) ||
		(math.IsNaN(float64(a)) && math.IsNaN(float64(b)))
}

// next returns the seq of the live event with the least (time, seq), or -1.
func (m *model) next() int {
	best := -1
	for i := range m.evs {
		if m.evs[i].live && (best < 0 || m.evs[i].time < m.evs[best].time) {
			best = i
		}
	}
	return best
}

func (m *model) pending() int {
	n := 0
	for i := range m.evs {
		if m.evs[i].live {
			n++
		}
	}
	return n
}

// timeOf decodes an absolute time operand: a top bit selects one of the
// absolutes, otherwise now plus one of the delays.
func (m *model) timeOf(b byte) units.Seconds {
	if b&0x80 != 0 {
		return units.Seconds(absolutes[int(b)%len(absolutes)])
	}
	return m.now + units.Seconds(delays[int(b)%len(delays)])
}

// schedule makes one At (after false) or After (after true) call for x and
// records it. chain more events follow, each scheduled from its
// predecessor's callback with delay d — so into the slot the predecessor
// just vacated.
func (m *model) schedule(after bool, x units.Seconds, chain int, d units.Seconds) {
	t, valid := x, x >= m.now
	if after {
		t, valid = m.now+x, x >= 0 && m.now+x >= m.now
	}
	seq := len(m.evs)
	fn := func() {
		m.fire(seq)
		if chain > 0 {
			m.schedule(true, d, chain-1, d)
		}
	}
	var h Handle
	var err error
	if after {
		h, err = m.e.After(x, "after", fn)
	} else {
		h, err = m.e.At(x, "at", fn)
	}
	if valid != (err == nil) || (err != nil && !errors.Is(err, ErrPastEvent)) {
		m.t.Fatalf("schedule #%d (after=%v, x=%v, now=%v): err = %v, want valid=%v", seq, after, x, m.now, err, valid)
	}
	m.evs = append(m.evs, refEvent{time: t, live: valid, h: h})
}

// fire is every callback's check: the event firing must be the
// reference's next, and the clock must read its time.
func (m *model) fire(seq int) {
	if want := m.next(); want != seq {
		m.t.Fatalf("event #%d fired, want #%d", seq, want)
	}
	m.evs[seq].live = false
	m.now = m.evs[seq].time
	m.fired++
	if got := m.e.Now(); !sameTime(got, m.now) {
		m.t.Fatalf("event #%d: Now() = %v, want %v", seq, got, m.now)
	}
	if got, want := m.e.Pending(), m.pending(); got != want {
		m.t.Fatalf("event #%d: Pending() = %d, want %d", seq, got, want)
	}
}

func (m *model) handle(b byte) (int, Handle) {
	if len(m.evs) == 0 {
		return -1, Handle{}
	}
	i := int(b) % len(m.evs)
	return i, m.evs[i].h
}

// run decodes and runs prog, then drains both queues.
func (m *model) run(prog []byte) {
	for pc := 0; pc < len(prog); {
		op := prog[pc] % numOps
		pc++
		var b byte
		if op != opStep {
			if pc == len(prog) {
				break
			}
			b = prog[pc]
			pc++
		}
		switch op {
		case opAt:
			m.schedule(false, m.timeOf(b), 0, 0)
		case opAfter:
			m.schedule(true, units.Seconds(delays[int(b)%len(delays)]), 0, 0)
		case opChain:
			d := units.Seconds(delays[int(b)%len(delays)])
			m.schedule(true, d, int(b>>4)%8, d)
		case opCancel:
			i, h := m.handle(b)
			want := i >= 0 && m.evs[i].live
			if got := m.e.Cancel(h); got != want {
				m.t.Fatalf("Cancel(#%d) = %v, want %v", i, got, want)
			}
			if want {
				m.evs[i].live = false
			}
		case opEventTime:
			i, h := m.handle(b)
			got, ok := m.e.EventTime(h)
			want := i >= 0 && m.evs[i].live
			if ok != want || (ok && !sameTime(got, m.evs[i].time)) {
				m.t.Fatalf("EventTime(#%d) = %v, %v", i, got, ok)
			}
		case opStep:
			before, live := m.fired, m.pending()
			if ran := m.e.Step(); ran != (live > 0) || m.fired-before != min(live, 1) {
				m.t.Fatalf("Step() = %v with %d events live; %d fired", ran, live, m.fired-before)
			}
		case opRunUntil:
			t := m.timeOf(b)
			before := m.fired
			n := m.e.RunUntil(t)
			if n != m.fired-before {
				m.t.Fatalf("RunUntil(%v) = %d, but %d events fired", t, n, m.fired-before)
			}
			if i := m.next(); i >= 0 && m.evs[i].time <= t {
				m.t.Fatalf("RunUntil(%v) left #%d at %v", t, i, m.evs[i].time)
			}
			if t > m.now {
				m.now = t
			}
		}
		if got := m.e.Now(); !sameTime(got, m.now) {
			m.t.Fatalf("after op %d: Now() = %v, want %v", op, got, m.now)
		}
		if got, want := m.e.Pending(), m.pending(); got != want {
			m.t.Fatalf("after op %d: Pending() = %d, want %d", op, got, want)
		}
	}
	if _, err := m.e.Run(0); err != nil {
		m.t.Fatal(err)
	}
	if i := m.next(); i >= 0 || m.e.Pending() != 0 {
		m.t.Fatalf("drained engine has %d pending; reference still holds #%d", m.e.Pending(), i)
	}
	if m.e.Processed() != m.fired {
		m.t.Fatalf("Processed() = %d, want %d", m.e.Processed(), m.fired)
	}
}

func runProgram(t testing.TB, prog []byte) {
	m := &model{t: t, e: New()}
	m.run(prog)
}

// abs encodes the operand byte for absolutes[i].
func abs(i int) byte { return 0x80 | byte(i) }

// engineOrderSeeds are FuzzEngineOrder's seed corpus, one per property
// the kernel's ordering contract has to survive.
var engineOrderSeeds = map[string][]byte{
	// Many events at a few times, scheduled in runs of ties and zero
	// delays, with cancels among them and steps in between.
	"ties": {
		opAt, 0, opAt, 4, opAt, 0, opAt, 4, opAfter, 1, opAfter, 0, opAt, 7,
		opCancel, 2, opStep, opAt, 0, opAt, 4, opAfter, 0, opStep, opStep,
		opAt, 0, opAt, 0, opCancel, 9, opEventTime, 8, opStep, opAt, 5,
		opAt, 4, opRunUntil, 4, opAt, 0, opStep,
	},
	// −0 is a valid time at the start, +Inf always sorts last, and NaN
	// and past times are rejected.
	"signed-zero-and-inf": {
		opAt, abs(0), opAt, abs(6), opAt, abs(1), opAfter, 13, opAt, abs(7),
		opEventTime, 0, opStep, opAt, abs(0), opStep, opAt, 14, opAt, abs(6),
		opRunUntil, 4, opAt, 2, opRunUntil, abs(6), opAt, abs(6), opAfter, 0,
		opStep, opStep,
	},
	// Callbacks that reschedule into the slot they just vacated, among
	// plain events that tie with them.
	"self-reschedule": {
		opChain, 0x74, opChain, 0x70, opAt, 4, opAt, 7, opChain, 0x36,
		opStep, opCancel, 1, opStep, opStep, opAfter, 4, opRunUntil, 9,
		opStep, opEventTime, 5, opCancel, 5,
	},
	// RunUntil must not move the radix base past its new now: with events
	// at 10 and 10.5, RunUntil(5), then one at 7, the 7 fires first.
	"run-until-then-earlier": {
		opAt, abs(4), opAt, abs(5), opRunUntil, abs(2), opAt, abs(3), opStep, opStep, opStep,
	},
}

// FuzzEngineOrder checks the kernel against the (time, seq) reference on
// programs decoded from arbitrary bytes.
func FuzzEngineOrder(f *testing.F) {
	for _, prog := range engineOrderSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			return
		}
		runProgram(t, prog)
	})
}

// TestEngineOrderRandomPrograms runs the differential harness on random
// programs, so plain go test covers more than the seed corpus.
func TestEngineOrderRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		prog := make([]byte, 1+rng.Intn(600))
		rng.Read(prog)
		runProgram(t, prog)
	}
}

// TestRunUntilThenEarlierEvent is the regression test for RunUntil's peek
// rule: an event scheduled after RunUntil, earlier than everything still
// queued, must fire first.
func TestRunUntilThenEarlierEvent(t *testing.T) {
	e := New()
	var order []string
	at := func(tm units.Seconds, name string) {
		if _, err := e.At(tm, name, func() { order = append(order, name) }); err != nil {
			t.Fatal(err)
		}
	}
	at(10, "a")
	at(10.5, "c")
	if n := e.RunUntil(5); n != 0 || e.Now() != 5 {
		t.Fatalf("RunUntil(5) ran %d events, now %v", n, e.Now())
	}
	at(7, "b")
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := len(order); got != 3 || order[0] != "b" || order[1] != "a" || order[2] != "c" {
		t.Fatalf("order = %v, want [b a c]", order)
	}
}
