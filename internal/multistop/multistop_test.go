package multistop

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/track"
	"repro/internal/units"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-12) {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

func fourStops() []Stop {
	return []Stop{
		{Name: "library", Position: 0},
		{Name: "rack-A", Position: 200},
		{Name: "rack-B", Position: 350},
		{Name: "rack-C", Position: 500},
	}
}

func mustLine(t *testing.T) *Line {
	t.Helper()
	l, err := New(core.DefaultConfig(), fourStops())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewValidation(t *testing.T) {
	cfg := core.DefaultConfig()
	if _, err := New(cfg, fourStops()[:1]); err == nil {
		t.Error("one stop must be rejected")
	}
	dup := []Stop{{Name: "a", Position: 5}, {Name: "b", Position: 5}}
	if _, err := New(cfg, dup); err == nil {
		t.Error("duplicate positions must be rejected")
	}
	bad := cfg
	bad.Cart = nil
	if _, err := New(bad, fourStops()); !errors.Is(err, core.ErrNoCart) {
		t.Errorf("err = %v", err)
	}
	bad = cfg
	bad.MaxSpeed = 0
	if _, err := New(bad, fourStops()); err == nil {
		t.Error("zero speed must be rejected")
	}
	bad = cfg
	bad.DockTime = -1
	if _, err := New(bad, fourStops()); err == nil {
		t.Error("negative dock time must be rejected")
	}
	bad = cfg
	bad.LIM.Efficiency = 0
	if _, err := New(bad, fourStops()); err == nil {
		t.Error("zero efficiency must be rejected")
	}
}

func TestStopsSortedAndIndexed(t *testing.T) {
	// Stops given out of order are sorted by position.
	l, err := New(core.DefaultConfig(), []Stop{
		{Name: "far", Position: 500},
		{Name: "near", Position: 0},
		{Name: "mid", Position: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := l.Stops()
	if ss[0].Name != "near" || ss[1].Name != "mid" || ss[2].Name != "far" {
		t.Errorf("stops = %v", ss)
	}
	i, err := l.StopIndex("mid")
	if err != nil || i != 1 {
		t.Errorf("StopIndex(mid) = %d, %v", i, err)
	}
	if _, err := l.StopIndex("nope"); !errors.Is(err, ErrUnknownStop) {
		t.Errorf("err = %v", err)
	}
}

func TestHopPhysicsLongAndShort(t *testing.T) {
	l := mustLine(t)
	// library → rack-C: 500 m, reaches full speed; matches the two-endpoint
	// model: transit 2.6 s, move 8.6 s, energy 15.04 kJ.
	long, err := l.HopBetween(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if long.Triangular {
		t.Error("500 m hop should be trapezoidal")
	}
	approx(t, "long transit", float64(long.TransitTime), 2.6, 1e-9)
	approx(t, "long move", float64(long.MoveTime), 8.6, 1e-9)
	approx(t, "long energy", long.Energy.KJ(), 15.04, 0.001)
	if long.PeakSpeed != 200 {
		t.Errorf("peak = %v", long.PeakSpeed)
	}

	// A 40 m-minus hop never reaches 200 m/s: rack-B → rack-C is 150 m ≥
	// 40 m ramps, so use closer stops. Build a line with a 30 m hop.
	short, err := New(core.DefaultConfig(), []Stop{
		{Name: "x", Position: 0}, {Name: "y", Position: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := short.HopBetween(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Triangular {
		t.Error("30 m hop must be triangular")
	}
	// Peak = sqrt(a·d) = sqrt(30000) ≈ 173.2 m/s; transit = 2·sqrt(d/a).
	approx(t, "short peak", float64(h.PeakSpeed), math.Sqrt(30000), 1e-9)
	approx(t, "short transit", float64(h.TransitTime), 2*math.Sqrt(0.03), 1e-9)
	// Energy: 2×½M·peak²/η = M·a·d/η.
	approx(t, "short energy", float64(h.Energy), 0.28192*1000*30/0.75, 0.001)
	// Short hops cost less energy than full-speed ones.
	if h.Energy >= long.Energy {
		t.Error("triangular hop must cost less than full-speed hop")
	}
}

func TestHopErrors(t *testing.T) {
	l := mustLine(t)
	if _, err := l.HopBetween(0, 0); !errors.Is(err, ErrSameStop) {
		t.Errorf("err = %v", err)
	}
	if _, err := l.HopBetween(-1, 2); !errors.Is(err, ErrUnknownStop) {
		t.Errorf("err = %v", err)
	}
	if _, err := l.HopBetween(0, 9); !errors.Is(err, ErrUnknownStop) {
		t.Errorf("err = %v", err)
	}
}

func TestPlaceAndMove(t *testing.T) {
	l := mustLine(t)
	if err := l.Place(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Place(1, 0); err == nil {
		t.Error("double placement must error")
	}
	if err := l.Place(2, 9); !errors.Is(err, ErrUnknownStop) {
		t.Errorf("err = %v", err)
	}
	var moveErr error
	l.Move(1, 3, func(err error) { moveErr = err })
	end, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if moveErr != nil {
		t.Fatal(moveErr)
	}
	approx(t, "move duration", float64(end), 8.6, 1e-9)
	if at, ok := l.CartAt(1); !ok || at != 3 {
		t.Errorf("cart at %d, %v; want 3", at, ok)
	}
	st := l.Stats()
	if st.Moves != 1 || st.QueuedMoves != 0 {
		t.Errorf("stats = %+v", st)
	}
	approx(t, "move energy", float64(st.Energy), 15040, 0.001)
}

func TestMoveErrors(t *testing.T) {
	l := mustLine(t)
	l.Place(1, 0)
	var errs []error
	l.Move(9, 1, func(err error) { errs = append(errs, err) })
	l.Move(1, 0, func(err error) { errs = append(errs, err) })
	if !errors.Is(errs[0], ErrUnknownCart) {
		t.Errorf("err = %v", errs[0])
	}
	if !errors.Is(errs[1], ErrSameStop) {
		t.Errorf("err = %v", errs[1])
	}
	// Moving a cart already in motion reports busy.
	l.Move(1, 3, func(err error) {
		if err != nil {
			t.Errorf("move: %v", err)
		}
	})
	l.Move(1, 2, func(err error) { errs = append(errs, err) })
	if len(errs) != 3 || !errors.Is(errs[2], ErrCartBusy) {
		t.Errorf("busy err = %v", errs)
	}
	if _, err := l.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestQueuedCartRejectsSecondMove pins that a cart whose move is queued
// behind a conflicting span is already busy: a second Move must fail rather
// than be accepted and later fly from the stale origin.
func TestQueuedCartRejectsSecondMove(t *testing.T) {
	l, err := New(core.DefaultConfig(), []Stop{
		{Name: "a", Position: 0},
		{Name: "b", Position: 200},
		{Name: "c", Position: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Place(0, 0)
	l.Place(1, 1)
	ok := func(err error) {
		if err != nil {
			t.Errorf("move: %v", err)
		}
	}
	l.Move(1, 2, ok) // b→c holds span [1,2]
	l.Move(0, 2, ok) // a→c overlaps it and queues
	var second error
	l.Move(0, 1, func(err error) { second = err })
	if !errors.Is(second, ErrCartBusy) {
		t.Fatalf("second move of a queued cart: err = %v, want ErrCartBusy", second)
	}
	if _, err := l.Run(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Moves != 2 || st.QueuedMoves != 1 {
		t.Errorf("moves = %d, queued = %d; want 2 and 1", st.Moves, st.QueuedMoves)
	}
	if at, ok := l.CartAt(0); !ok || at != 2 {
		t.Errorf("cart 0 at %d (docked %v), want stop 2", at, ok)
	}
}

func TestDisjointSpansRunConcurrently(t *testing.T) {
	l := mustLine(t)
	l.Place(1, 0) // library → rack-A: span [0,1]
	l.Place(2, 2) // rack-B → rack-C: span [2,3]
	done := 0
	l.Move(1, 1, func(err error) {
		if err != nil {
			t.Error(err)
		}
		done++
	})
	l.Move(2, 3, func(err error) {
		if err != nil {
			t.Error(err)
		}
		done++
	})
	end, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	// Concurrent: total time is the slower single move, not the sum.
	hop1, _ := l.HopBetween(0, 1)
	hop2, _ := l.HopBetween(2, 3)
	slower := math.Max(float64(hop1.MoveTime), float64(hop2.MoveTime))
	approx(t, "concurrent duration", float64(end), slower, 1e-9)
	if l.Stats().QueuedMoves != 0 {
		t.Errorf("queued = %d, want 0", l.Stats().QueuedMoves)
	}
}

func TestOverlappingSpansQueue(t *testing.T) {
	l := mustLine(t)
	l.Place(1, 0) // library → rack-C: whole line
	l.Place(2, 1) // rack-A → rack-B: inside it
	l.Move(1, 3, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	l.Move(2, 2, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	end, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	hop1, _ := l.HopBetween(0, 3)
	hop2, _ := l.HopBetween(1, 2)
	approx(t, "serialised duration", float64(end),
		float64(hop1.MoveTime)+float64(hop2.MoveTime), 1e-9)
	st := l.Stats()
	if st.QueuedMoves != 1 {
		t.Errorf("queued = %d, want 1", st.QueuedMoves)
	}
	approx(t, "wait time", float64(st.TotalWait), float64(hop1.MoveTime), 1e-9)
}

// TestHigherSpeedAmelioratesContention checks §VI's claim: under contention
// from different users, raising the max speed cuts queueing delay.
func TestHigherSpeedAmelioratesContention(t *testing.T) {
	run := func(speed units.MetresPerSecond) units.Seconds {
		cfg := core.DefaultConfig()
		cfg.MaxSpeed = speed
		l, err := New(cfg, fourStops())
		if err != nil {
			t.Fatal(err)
		}
		// Four users ping-ponging carts over overlapping spans.
		for i := 0; i < 4; i++ {
			l.Place(track.CartID(i), 0)
		}
		for i := 0; i < 4; i++ {
			id := track.CartID(i)
			dst := 1 + i%3
			l.Move(id, dst, func(err error) {
				if err != nil {
					t.Error(err)
				}
			})
		}
		if _, err := l.Run(); err != nil {
			t.Fatal(err)
		}
		return l.Stats().TotalWait
	}
	slow := run(100)
	fast := run(300)
	if fast >= slow {
		t.Errorf("total wait at 300 m/s (%v) should undercut 100 m/s (%v)", fast, slow)
	}
}

func TestCartAtUnknown(t *testing.T) {
	l := mustLine(t)
	if _, ok := l.CartAt(5); ok {
		t.Error("unknown cart must not resolve")
	}
}

func TestBlockQueuesMovesUntilUnblock(t *testing.T) {
	l := mustLine(t)
	if err := l.Place(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Block(1, 2); err != nil {
		t.Fatal(err)
	}
	if l.BlockedSegments() != 1 {
		t.Fatalf("BlockedSegments = %d, want 1", l.BlockedSegments())
	}
	// The move spans [0,3] and overlaps the blockade: it must queue, not
	// fail, and complete only after the segment is returned to service.
	var doneAt units.Seconds
	moveErr := errors.New("not called")
	l.Move(0, 3, func(err error) {
		moveErr = err
		doneAt = l.Engine.Now()
	})
	const clearAt = units.Seconds(30)
	l.Engine.MustAfter(clearAt, "clear-debris", func() {
		if err := l.Unblock(1, 2); err != nil {
			t.Errorf("Unblock: %v", err)
		}
	})
	if _, err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if moveErr != nil {
		t.Fatalf("queued move failed: %v", moveErr)
	}
	if doneAt < clearAt {
		t.Errorf("move completed at %v, before the blockade cleared at %v", doneAt, clearAt)
	}
	if at, ok := l.CartAt(0); !ok || at != 3 {
		t.Errorf("cart at %d (ok=%v), want 3", at, ok)
	}
	st := l.Stats()
	if st.BlockedMoves != 1 || st.QueuedMoves != 1 || st.Moves != 1 {
		t.Errorf("stats = %+v, want 1 blocked, 1 queued, 1 move", st)
	}
	if l.BlockedSegments() != 0 {
		t.Errorf("BlockedSegments after Unblock = %d", l.BlockedSegments())
	}
}

func TestBlockadesNest(t *testing.T) {
	l := mustLine(t)
	if err := l.Block(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Block(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Unblock(0, 1); err != nil {
		t.Fatal(err)
	}
	if l.BlockedSegments() != 1 {
		t.Errorf("one Unblock cleared both nested blockades: %d left", l.BlockedSegments())
	}
	if err := l.Unblock(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Unblock(0, 1); err == nil {
		t.Error("Unblock of an unblocked segment must error")
	}
	if err := l.Block(-1, 2); err == nil {
		t.Error("out-of-range Block must error")
	}
	if err := l.Block(0, 4); err == nil {
		t.Error("out-of-range Block must error")
	}
}

// TestSpanOverlapSemantics pins the exported reservation primitive: spans
// are inclusive ranges, endpoint-sharing counts as conflict (a cart
// mid-dock blocks through traffic at its stop), and NewSpan normalises
// argument order. internal/tubenet builds its spur-line conflict domains
// on exactly these semantics.
func TestSpanOverlapSemantics(t *testing.T) {
	cases := []struct {
		a, b Span
		want bool
	}{
		{Span{0, 1}, Span{1, 2}, true},  // shared endpoint stop
		{Span{0, 1}, Span{2, 3}, false}, // disjoint
		{Span{0, 5}, Span{2, 3}, true},  // containment
		{Span{2, 2}, Span{2, 2}, true},  // degenerate single-stop spans
		{Span{3, 4}, Span{0, 2}, false}, // disjoint, other order
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap must be symmetric: %v vs %v", c.b, c.a)
		}
	}
	if got := NewSpan(4, 1); got != (Span{Lo: 1, Hi: 4}) {
		t.Errorf("NewSpan(4, 1) = %+v, want normalised {1 4}", got)
	}
}
