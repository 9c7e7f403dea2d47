package track

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDirection(t *testing.T) {
	if Outbound.String() != "outbound" || Inbound.String() != "inbound" {
		t.Error("direction strings wrong")
	}
	if Outbound.Opposite() != Inbound || Inbound.Opposite() != Outbound {
		t.Error("Opposite wrong")
	}
}

func TestRailModeString(t *testing.T) {
	if SingleRail.String() != "single-rail" || DualRail.String() != "dual-rail" {
		t.Error("mode strings wrong")
	}
}

func TestSingleRailExclusive(t *testing.T) {
	r := NewRail(SingleRail)
	if !r.Free(Outbound) || !r.Free(Inbound) {
		t.Fatal("fresh rail must be free")
	}
	if err := r.Reserve(1, Outbound); err != nil {
		t.Fatal(err)
	}
	// Single rail: the inbound direction is blocked too.
	if err := r.Reserve(2, Inbound); !errors.Is(err, ErrRailBusy) {
		t.Errorf("err = %v, want ErrRailBusy", err)
	}
	if r.Occupant(Inbound) != 1 {
		t.Errorf("occupant = %v", r.Occupant(Inbound))
	}
	if err := r.Release(2, Outbound); !errors.Is(err, ErrRailIdle) {
		t.Errorf("wrong-cart release err = %v", err)
	}
	if err := r.Release(1, Outbound); err != nil {
		t.Fatal(err)
	}
	if !r.Free(Inbound) {
		t.Error("released rail must be free")
	}
}

func TestDualRailConcurrent(t *testing.T) {
	r := NewRail(DualRail)
	if err := r.Reserve(1, Outbound); err != nil {
		t.Fatal(err)
	}
	// Dual rail: inbound proceeds concurrently.
	if err := r.Reserve(2, Inbound); err != nil {
		t.Fatalf("dual rail inbound blocked: %v", err)
	}
	if err := r.Reserve(3, Outbound); !errors.Is(err, ErrRailBusy) {
		t.Errorf("second outbound err = %v", err)
	}
	if err := r.Release(1, Outbound); err != nil {
		t.Fatal(err)
	}
	if err := r.Release(2, Inbound); err != nil {
		t.Fatal(err)
	}
}

func TestDockBankValidation(t *testing.T) {
	if _, err := NewDockBank(0); err == nil {
		t.Error("zero stations must be rejected")
	}
}

func TestDockLifecycle(t *testing.T) {
	b, err := NewDockBank(2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stations() != 2 || b.FreeStations() != 2 {
		t.Fatalf("stations=%d free=%d", b.Stations(), b.FreeStations())
	}
	st, err := b.BeginDock(1)
	if err != nil {
		t.Fatal(err)
	}
	if st != 0 {
		t.Errorf("station = %d, want 0", st)
	}
	if !b.Blocked() {
		t.Error("mid-dock must block the rail")
	}
	if b.Docked(1) {
		t.Error("cart mid-dock is not yet docked")
	}
	// A second dock while blocked fails (paper: no shuttling past mid-dock).
	if _, err := b.BeginDock(2); !errors.Is(err, ErrDockBlocked) {
		t.Errorf("err = %v", err)
	}
	if err := b.EndDock(1); err != nil {
		t.Fatal(err)
	}
	if b.Blocked() || !b.Docked(1) {
		t.Error("EndDock must unblock and mark docked")
	}
	if b.FreeStations() != 1 {
		t.Errorf("free = %d", b.FreeStations())
	}
	// Fill the second station, then the bank is full.
	if _, err := b.BeginDock(2); err != nil {
		t.Fatal(err)
	}
	if err := b.EndDock(2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.BeginDock(3); !errors.Is(err, ErrDockFull) {
		t.Errorf("err = %v", err)
	}
	if got := b.Occupants(); len(got) != 2 {
		t.Errorf("occupants = %v", got)
	}
}

func TestDockErrors(t *testing.T) {
	b, _ := NewDockBank(2)
	if err := b.EndDock(1); !errors.Is(err, ErrNotDocked) {
		t.Errorf("err = %v", err)
	}
	if err := b.BeginUndock(1); !errors.Is(err, ErrNotDocked) {
		t.Errorf("err = %v", err)
	}
	if err := b.EndUndock(1); !errors.Is(err, ErrNotDocked) {
		t.Errorf("err = %v", err)
	}
	b.BeginDock(1)
	// Duplicate dock of the same cart.
	if err := b.EndDock(1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.BeginDock(1); !errors.Is(err, ErrDuplicate) {
		t.Errorf("err = %v", err)
	}
	// EndDock with wrong cart.
	b.BeginDock(2)
	if err := b.EndDock(3); !errors.Is(err, ErrNotDocked) {
		t.Errorf("err = %v", err)
	}
	b.EndDock(2)
}

func TestUndockLifecycle(t *testing.T) {
	b, _ := NewDockBank(1)
	b.BeginDock(7)
	b.EndDock(7)
	if err := b.BeginUndock(7); err != nil {
		t.Fatal(err)
	}
	if !b.Blocked() {
		t.Error("mid-undock must block")
	}
	// Undock while mid-undock fails.
	if err := b.BeginUndock(7); !errors.Is(err, ErrDockBlocked) {
		t.Errorf("err = %v", err)
	}
	if err := b.EndUndock(8); !errors.Is(err, ErrNotDocked) {
		t.Errorf("err = %v", err)
	}
	if err := b.EndUndock(7); err != nil {
		t.Fatal(err)
	}
	if b.Blocked() || b.FreeStations() != 1 {
		t.Error("EndUndock must free the station")
	}
}

func TestLibrary(t *testing.T) {
	l := NewLibrary(2)
	if err := l.Store(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Store(1); !errors.Is(err, ErrDuplicate) {
		t.Errorf("err = %v", err)
	}
	if err := l.Store(2); err != nil {
		t.Fatal(err)
	}
	if err := l.Store(3); !errors.Is(err, ErrLibraryFull) {
		t.Errorf("err = %v", err)
	}
	if !l.Holds(1) || l.Holds(3) {
		t.Error("Holds wrong")
	}
	if l.Count() != 2 {
		t.Errorf("count = %d", l.Count())
	}
	if err := l.Remove(3); !errors.Is(err, ErrNotInLibrary) {
		t.Errorf("err = %v", err)
	}
	if err := l.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Store(3); err != nil {
		t.Fatalf("slot should be free after removal: %v", err)
	}
}

func TestUnboundedLibrary(t *testing.T) {
	l := NewLibrary(0)
	for i := 0; i < 1000; i++ {
		if err := l.Store(CartID(i)); err != nil {
			t.Fatalf("unbounded library rejected cart %d: %v", i, err)
		}
	}
	if l.Count() != 1000 {
		t.Errorf("count = %d", l.Count())
	}
}

// TestDockInvariantProperty drives a random legal operation sequence and
// checks structural invariants: never more occupants than stations, blocked
// iff a mid-dock cart exists, and every docked cart is unique.
func TestDockInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, err := NewDockBank(3)
		if err != nil {
			return false
		}
		next := CartID(0)
		var docked []CartID
		var mid CartID = NoCart
		var midIsDocking bool
		for step := 0; step < 300; step++ {
			switch rng.Intn(4) {
			case 0: // begin dock
				if _, err := b.BeginDock(next); err == nil {
					if mid != NoCart {
						return false // must have been blocked
					}
					mid = next
					midIsDocking = true
					next++
				}
			case 1: // end dock
				if mid != NoCart && midIsDocking && b.EndDock(mid) == nil {
					docked = append(docked, mid)
					mid = NoCart
				}
			case 2: // begin undock
				if len(docked) > 0 && mid == NoCart {
					id := docked[rng.Intn(len(docked))]
					if err := b.BeginUndock(id); err != nil {
						return false
					}
					mid = id
					midIsDocking = false
				}
			case 3: // end undock
				if mid != NoCart && !midIsDocking && b.EndUndock(mid) == nil {
					for i, d := range docked {
						if d == mid {
							docked = append(docked[:i], docked[i+1:]...)
							break
						}
					}
					mid = NoCart
				}
			}
			if len(b.Occupants()) > b.Stations() {
				return false
			}
			if b.Blocked() != (mid != NoCart) {
				return false
			}
			seen := map[CartID]bool{}
			for _, id := range b.Occupants() {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestLibraryRejectsNegativeIDs: cart IDs are fleet indexes, so a negative
// ID (NoCart included) is an error from Store and ErrNotInLibrary from
// Remove — never a panic or an out-of-range slot.
func TestLibraryRejectsNegativeIDs(t *testing.T) {
	l := NewLibrary(0)
	for _, id := range []CartID{NoCart, -7} {
		if err := l.Store(id); !errors.Is(err, ErrBadCart) {
			t.Errorf("Store(%d) err = %v, want ErrBadCart", id, err)
		}
		if err := l.Remove(id); !errors.Is(err, ErrNotInLibrary) {
			t.Errorf("Remove(%d) err = %v, want ErrNotInLibrary", id, err)
		}
		if l.Holds(id) {
			t.Errorf("Holds(%d) = true", id)
		}
	}
	if l.Count() != 0 {
		t.Errorf("count = %d after rejected stores", l.Count())
	}
}

// TestLibrarySparseIDs: storing ID 1000 after 0 grows the slots without
// admitting the IDs in between.
func TestLibrarySparseIDs(t *testing.T) {
	l := NewLibrary(0)
	for _, id := range []CartID{0, 1000} {
		if err := l.Store(id); err != nil {
			t.Fatalf("Store(%d): %v", id, err)
		}
	}
	if !l.Holds(0) || !l.Holds(1000) || l.Holds(500) || l.Holds(1001) || l.Count() != 2 {
		t.Fatalf("holds 0/500/1000/1001 = %t/%t/%t/%t, count %d",
			l.Holds(0), l.Holds(500), l.Holds(1000), l.Holds(1001), l.Count())
	}
	if err := l.Remove(500); !errors.Is(err, ErrNotInLibrary) {
		t.Errorf("Remove(500) err = %v", err)
	}
	if err := l.Remove(1001); !errors.Is(err, ErrNotInLibrary) {
		t.Errorf("Remove(1001) err = %v", err)
	}
	if err := l.Store(1000); !errors.Is(err, ErrDuplicate) {
		t.Errorf("second Store(1000) err = %v", err)
	}
	if err := l.Store(500); err != nil {
		t.Errorf("Store(500): %v", err)
	}
}

// TestLibraryCountAcrossCycles drives 10k random Store/Remove calls on a
// bounded library against a reference set: every outcome and the count
// must agree at every step.
func TestLibraryCountAcrossCycles(t *testing.T) {
	const fleet, slots = 24, 16
	l := NewLibrary(slots)
	held := make(map[CartID]bool)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10_000; i++ {
		id := CartID(rng.Intn(fleet))
		if rng.Intn(2) == 0 {
			err := l.Store(id)
			switch {
			case held[id]:
				if !errors.Is(err, ErrDuplicate) {
					t.Fatalf("step %d: Store(%d) of a held cart: %v", i, id, err)
				}
			case len(held) >= slots:
				if !errors.Is(err, ErrLibraryFull) {
					t.Fatalf("step %d: Store(%d) into a full library: %v", i, id, err)
				}
			case err != nil:
				t.Fatalf("step %d: Store(%d): %v", i, id, err)
			default:
				held[id] = true
			}
		} else {
			err := l.Remove(id)
			if held[id] != (err == nil) {
				t.Fatalf("step %d: Remove(%d) = %v, held %t", i, id, err, held[id])
			}
			delete(held, id)
		}
		if l.Count() != len(held) || l.Holds(id) != held[id] {
			t.Fatalf("step %d: count %d holds(%d) %t, want %d %t", i, l.Count(), id, l.Holds(id), len(held), held[id])
		}
	}
}
