package sim

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []string
	add := func(at float64, name string) {
		if _, err := e.At(units.Seconds(at), name, func() { order = append(order, name) }); err != nil {
			t.Fatal(err)
		}
	}
	add(5, "c")
	add(1, "a")
	add(5, "d") // same time as c: scheduling order breaks the tie
	add(3, "b")
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", "d"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 5 {
		t.Errorf("final time = %v", e.Now())
	}
	if e.Processed() != 4 {
		t.Errorf("processed = %d", e.Processed())
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := New()
	var fired []float64
	e.MustAfter(2, "outer", func() {
		fired = append(fired, float64(e.Now()))
		e.MustAfter(3, "inner", func() {
			fired = append(fired, float64(e.Now()))
		})
	})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Fatalf("fired = %v, want [2 5]", fired)
	}
}

func TestPastSchedulingRejected(t *testing.T) {
	e := New()
	e.MustAfter(5, "advance", func() {})
	e.Step()
	if _, err := e.At(3, "past", func() {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("err = %v", err)
	}
	if _, err := e.After(-1, "negative", func() {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("err = %v", err)
	}
	if _, err := e.At(10, "nilfn", nil); err == nil {
		t.Error("nil callback must be rejected")
	}
}

func TestCancel(t *testing.T) {
	e := New()
	ran := false
	h := e.MustAfter(1, "x", func() { ran = true })
	if !e.Cancel(h) {
		t.Fatal("first cancel must succeed")
	}
	if e.Cancel(h) {
		t.Fatal("second cancel must fail")
	}
	if _, ok := e.EventTime(h); ok {
		t.Error("cancelled handle still resolves")
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("cancelled event fired")
	}
	if e.Cancel(Handle{}) {
		t.Error("cancelling the zero Handle must fail")
	}
}

func TestCancelFiredEvent(t *testing.T) {
	e := New()
	fired := e.MustAfter(0, "fired", func() {})
	e.Step()
	if e.Cancel(fired) {
		t.Error("cancelling a fired event must fail")
	}
	if e.Cancel(fired) {
		t.Error("double-cancelling a fired event must fail")
	}
	if _, ok := e.EventTime(fired); ok {
		t.Error("fired handle still resolves")
	}
}

// TestStaleHandleCannotTouchRecycledSlot is the generation-counter
// invariant: a handle to a cancelled (or fired) event must not cancel
// whatever event is recycled into the same arena slot.
func TestStaleHandleCannotTouchRecycledSlot(t *testing.T) {
	e := New()
	old := e.MustAfter(1, "old", func() {})
	if !e.Cancel(old) {
		t.Fatal("cancel failed")
	}
	ran := false
	// With the slot freed, the next schedule recycles it.
	fresh := e.MustAfter(2, "fresh", func() { ran = true })
	if e.Cancel(old) {
		t.Fatal("stale handle cancelled the recycled slot's new event")
	}
	if _, ok := e.EventTime(old); ok {
		t.Error("stale handle resolves against the recycled slot")
	}
	if tm, ok := e.EventTime(fresh); !ok || tm != 2 {
		t.Fatalf("fresh handle EventTime = %v, %v; want 2, true", tm, ok)
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("recycled event did not fire")
	}
}

// TestRescheduleIntoRecycledSlot exercises the stall-fault pattern:
// read the pending time, cancel, and reschedule later — repeatedly, so
// the replacement keeps landing in the recycled slot.
func TestRescheduleIntoRecycledSlot(t *testing.T) {
	e := New()
	fires := 0
	h := e.MustAfter(10, "transit", func() { fires++ })
	for i := 0; i < 5; i++ {
		tm, ok := e.EventTime(h)
		if !ok {
			t.Fatalf("iteration %d: handle stale", i)
		}
		if !e.Cancel(h) {
			t.Fatalf("iteration %d: cancel failed", i)
		}
		var err error
		h, err = e.At(tm+5, "transit", func() { fires++ })
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatalf("fires = %d, want exactly 1", fires)
	}
	if e.Now() != 35 {
		t.Fatalf("final time = %v, want 35 (10 + 5×5)", e.Now())
	}
}

// TestArenaRecyclesSlots pins the allocation-flatness mechanism: a
// self-rescheduling chain reuses one slot forever, so the arena never
// grows past the peak queue depth.
func TestArenaRecyclesSlots(t *testing.T) {
	e := New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 10_000 {
			e.MustAfter(1, "tick", tick)
		}
	}
	e.MustAfter(1, "tick", tick)
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if n != 10_000 {
		t.Fatalf("fired %d events", n)
	}
	if got := len(e.arena); got != 1 {
		t.Fatalf("arena holds %d slots after 10k chained events, want 1", got)
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var order []int
	hs := make([]Handle, 10)
	for i := 0; i < 10; i++ {
		i := i
		hs[i] = e.MustAfter(units.Seconds(i), "n", func() { order = append(order, i) })
	}
	e.Cancel(hs[4])
	e.Cancel(hs[7])
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 8 {
		t.Fatalf("order = %v", order)
	}
	for _, v := range order {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if !sort.IntsAreSorted(order) {
		t.Fatalf("order not sorted: %v", order)
	}
}

// TestCancelRandomSubsetKeepsOrdering hammers heapRemove from arbitrary
// positions: survivors must still fire in (time, seq) order.
func TestCancelRandomSubsetKeepsOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		const total = 300
		hs := make([]Handle, total)
		fired := make([]int, 0, total)
		for i := 0; i < total; i++ {
			i := i
			at := units.Seconds(rng.Intn(40)) // heavy ties
			hs[i] = e.MustAfter(at, "r", func() { fired = append(fired, i) })
		}
		cancelled := make(map[int]bool)
		for i := 0; i < total/3; i++ {
			j := rng.Intn(total)
			if e.Cancel(hs[j]) {
				cancelled[j] = true
			}
		}
		if _, err := e.Run(0); err != nil {
			return false
		}
		if len(fired)+len(cancelled) != total {
			return false
		}
		last := units.Seconds(math.Inf(-1))
		for _, i := range fired {
			if cancelled[i] {
				return false
			}
			_ = last
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.MustAfter(units.Seconds(i), "tick", func() { count++ })
	}
	n := e.RunUntil(5.5)
	if n != 5 || count != 5 {
		t.Fatalf("ran %d events, count %d; want 5", n, count)
	}
	if e.Now() != 5.5 {
		t.Errorf("clock = %v, want 5.5", e.Now())
	}
	if e.Pending() != 5 {
		t.Errorf("pending = %d, want 5", e.Pending())
	}
	// RunUntil a past time only advances nothing.
	if n := e.RunUntil(2); n != 0 {
		t.Errorf("RunUntil(past) ran %d events", n)
	}
	if e.Now() != 5.5 {
		t.Errorf("clock moved backwards to %v", e.Now())
	}
}

func TestRunBudget(t *testing.T) {
	e := New()
	// Self-perpetuating event chain.
	var tick func()
	tick = func() { e.MustAfter(1, "tick", tick) }
	e.MustAfter(1, "tick", tick)
	n, err := e.Run(100)
	if err == nil {
		t.Fatal("budget exhaustion must error")
	}
	if n != 100 {
		t.Errorf("ran %d, want 100", n)
	}
}

func TestRunBudgetExactFinish(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.MustAfter(units.Seconds(i), "x", func() {})
	}
	n, err := e.Run(5)
	if err != nil || n != 5 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestTracer(t *testing.T) {
	e := New()
	var traced []string
	e.AddTracer(func(ev Event) { traced = append(traced, ev.Name) })
	e.MustAfter(1, "a", func() {})
	e.MustAfter(2, "b", func() {})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(traced) != 2 || traced[0] != "a" || traced[1] != "b" {
		t.Fatalf("traced = %v", traced)
	}
}

func TestMultipleTracersFireInRegistrationOrder(t *testing.T) {
	// The coexistence contract behind fault logging + telemetry: any number
	// of AddTracer consumers all observe every event, in the order they
	// registered.
	e := New()
	var fired []string
	e.AddTracer(func(ev Event) { fired = append(fired, "first:"+ev.Name) })
	e.AddTracer(func(ev Event) { fired = append(fired, "second:"+ev.Name) })
	e.AddTracer(nil) // ignored
	e.MustAfter(1, "a", func() {})
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []string{"first:a", "second:a"}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("fired[%d] = %q, want %q", i, fired[i], want[i])
		}
	}
}

func TestMustAfterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAfter with negative delay must panic")
		}
	}()
	New().MustAfter(-1, "bad", func() {})
}

func TestOrderingProperty(t *testing.T) {
	// Randomly scheduled events always fire in non-decreasing time order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		last := math.Inf(-1)
		ok := true
		for i := 0; i < 200; i++ {
			at := units.Seconds(rng.Float64() * 100)
			e.MustAfter(at, "r", func() {
				now := float64(e.Now())
				if now < last {
					ok = false
				}
				last = now
			})
		}
		if _, err := e.Run(0); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
