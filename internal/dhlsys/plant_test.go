package dhlsys

// Plant invariants under random API traffic and random segment faults,
// checked after every event, plus the two dock rules a random run rarely
// isolates: a mid-dock cart blocks the next dock, and a failed station
// refuses docks until repaired while its occupant can still leave.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/track"
	"repro/internal/units"
)

// plantChecker checks the plant's structural rules against the cart table.
// It remembers the previous mid-dock cart and station occupants so it can
// tell whether another cart started docking or undocking while one was
// still mid-dock.
type plantChecker struct {
	s            *System
	prevMid      track.CartID
	prevDocking  bool // prevMid was docking (not undocking)
	prevStations []track.CartID
}

func newPlantChecker(s *System) *plantChecker {
	return &plantChecker{s: s, prevMid: track.NoCart}
}

func (k *plantChecker) check() error {
	s, p := k.s, &k.s.plant
	stationOf := make(map[track.CartID]int)
	for i, id := range p.stations {
		if id == track.NoCart {
			continue
		}
		if j, dup := stationOf[id]; dup {
			return fmt.Errorf("cart %d in stations %d and %d", id, j, i)
		}
		c, ok := s.cart(id)
		if !ok {
			return fmt.Errorf("station %d holds unknown cart %d", i, id)
		}
		if c.Loc != atDock && p.midDock != id {
			return fmt.Errorf("station %d holds cart %d at %v, not mid-dock", i, id, c.Loc)
		}
		if p.failed[i] && k.prevStations != nil && k.prevStations[i] == track.NoCart {
			return fmt.Errorf("cart %d docked into failed station %d", id, i)
		}
		stationOf[id] = i
	}
	if p.midDock != track.NoCart {
		if _, ok := stationOf[p.midDock]; !ok {
			return fmt.Errorf("mid-dock cart %d holds no station", p.midDock)
		}
	}
	if k.prevMid != track.NoCart {
		if p.midDock == k.prevMid {
			for i, id := range p.stations {
				if id != k.prevStations[i] {
					return fmt.Errorf("station %d changed %d→%d while cart %d was mid-dock",
						i, k.prevStations[i], id, k.prevMid)
				}
			}
		} else {
			// The mid-dock cart was replaced: its own dock or undock must
			// have finished first.
			c, _ := s.cart(k.prevMid)
			_, docked := stationOf[k.prevMid]
			if k.prevDocking && c.Loc != atDock {
				return fmt.Errorf("cart %d left mid-dock at %v without docking", c.ID, c.Loc)
			}
			if !k.prevDocking && docked {
				return fmt.Errorf("cart %d left mid-undock still holding a station", c.ID)
			}
		}
	}

	holders := 0
	for slot, id := range p.holder {
		if id == track.NoCart {
			continue
		}
		holders++
		if p.single && slot != 0 {
			return fmt.Errorf("single rail holds cart %d in slot %d", id, slot)
		}
		c, ok := s.cart(id)
		if !ok || !c.Busy || c.Loc == atLibrary {
			return fmt.Errorf("rail slot %d held by cart %d (known %t)", slot, id, ok)
		}
	}
	if p.holder[0] != track.NoCart && p.holder[0] == p.holder[1] {
		return fmt.Errorf("cart %d holds both rail slots", p.holder[0])
	}
	if p.single && holders > 1 {
		return fmt.Errorf("single rail has %d holders", holders)
	}

	var at [3]int
	for _, c := range s.carts {
		at[c.Loc]++
		if c.Loc == inTransit && p.holder[0] != c.ID && p.holder[1] != c.ID {
			return fmt.Errorf("cart %d in transit without a rail slot", c.ID)
		}
		if c.Loc == atDock {
			if _, ok := stationOf[c.ID]; !ok {
				return fmt.Errorf("cart %d at dock holds no station", c.ID)
			}
		}
	}
	if at[atLibrary]+at[inTransit]+at[atDock] != s.NumCarts() {
		return fmt.Errorf("library %d + transit %d + dock %d carts ≠ fleet of %d",
			at[atLibrary], at[inTransit], at[atDock], s.NumCarts())
	}

	k.prevMid = p.midDock
	if k.prevMid != track.NoCart {
		c, _ := s.cart(k.prevMid)
		k.prevDocking = c.Loc == inTransit
	}
	k.prevStations = append(k.prevStations[:0], p.stations...)
	return nil
}

// randomPlantRun drives one random deployment: random Open/Close/Read/Write
// calls on random carts under a random script of segment stalls, dock
// failures and LIM power losses, checking the plant after every event.
func randomPlantRun(seed int64, mode track.RailMode) error {
	rng := rand.New(rand.NewSource(seed))
	opt := DefaultOptions()
	opt.RailMode = mode
	opt.NumCarts = 2 + rng.Intn(4)
	opt.DockStations = 1 + rng.Intn(3)
	opt.Seed = seed
	l, err := core.Launch(opt.Core)
	if err != nil {
		return err
	}
	trip := float64(l.Time)
	horizon := 30 * trip

	script := &faults.Script{Name: "random-plant"}
	for i, n := 0, rng.Intn(16); i < n; i++ {
		f := faults.Fault{
			At:       units.Seconds(rng.Float64() * horizon),
			Duration: units.Seconds((0.05 + rng.Float64()) * trip),
			Cart:     track.NoCart,
		}
		switch rng.Intn(3) {
		case 0:
			f.Kind = faults.CartStall
			f.Direction = track.Direction(rng.Intn(2))
		case 1:
			f.Kind = faults.DockFailure
			f.Station = rng.Intn(opt.DockStations)
		case 2:
			f.Kind = faults.LIMPowerLoss
			f.Direction = track.Direction(rng.Intn(2))
		}
		script.Faults = append(script.Faults, f)
	}
	opt.Faults = script
	s, err := New(opt)
	if err != nil {
		return err
	}

	k := newPlantChecker(s)
	var violation error
	s.Engine.AddTracer(func(ev sim.Event) {
		if violation == nil {
			if err := k.check(); err != nil {
				violation = fmt.Errorf("before %s at %.3fs: %w", ev.Name, float64(ev.Time), err)
			}
		}
	})
	// Each cart runs a client loop: after a random think time it issues
	// the op its location calls for, or one time in five a random op that
	// may be refused.
	var next func(id track.CartID)
	step := func(id track.CartID) func(error) {
		return func(error) {
			if s.Engine.Now() < units.Seconds(horizon) {
				next(id)
			}
		}
	}
	next = func(id track.CartID) {
		s.Engine.MustAfter(units.Seconds(rng.Float64()*trip), "test-op", func() {
			done := step(id)
			ioDone := func(units.Seconds, error) { done(nil) }
			op := rng.Intn(4)
			if rng.Intn(5) > 0 {
				switch c, _ := s.cart(id); c.Loc {
				case atLibrary:
					op = 0
				case atDock:
					op = 1 + rng.Intn(3)
				}
			}
			switch op {
			case 0:
				s.Open(id, done)
			case 1:
				s.Close(id, done)
			case 2:
				s.Read(id, units.GB, ioDone)
			case 3:
				s.Write(id, units.GB, ioDone)
			}
		})
	}
	for id := 0; id < opt.NumCarts; id++ {
		next(track.CartID(id))
	}
	if _, err := s.Run(); err != nil {
		return err
	}
	if violation != nil {
		return violation
	}
	return k.check()
}

func TestPlantInvariantsUnderFaultsProperty(t *testing.T) {
	for _, mode := range []track.RailMode{track.SingleRail, track.DualRail} {
		t.Run(mode.String(), func(t *testing.T) {
			f := func(seed int64) bool {
				if err := randomPlantRun(seed, mode); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMidDockBlocksNextDock: on a dual rail a cart can arrive at the
// endpoint while another is undocking there; it must not start docking
// until that undock ends (§III-B.5: no shuttling past a cart mid-dock).
func TestMidDockBlocksNextDock(t *testing.T) {
	opt := DefaultOptions()
	opt.RailMode = track.DualRail
	s := mustSystem(t, opt)
	cfg := opt.Core
	trip := s.launch.Time
	var closeAt, undockEnd, openedAt units.Seconds
	s.Open(0, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		// Cart 1 launches now and reaches the bank at arrive; cart 0
		// starts undocking half an undock before that.
		arrive := s.Engine.Now() + trip - cfg.DockTime
		closeAt = arrive - cfg.UndockTime/2
		undockEnd = closeAt + cfg.UndockTime
		s.Open(1, func(err error) {
			if err != nil {
				t.Error(err)
			}
			openedAt = s.Engine.Now()
		})
		s.Engine.MustAfter(closeAt-s.Engine.Now(), "test-close", func() {
			s.Close(0, func(err error) {
				if err != nil {
					t.Error(err)
				}
			})
		})
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if openedAt < undockEnd+cfg.DockTime {
		t.Errorf("cart 1 docked by %.3fs, before cart 0's undock ended at %.3fs plus a dock",
			float64(openedAt), float64(undockEnd))
	}
	if c, _ := s.cart(1); c.Loc != atDock {
		t.Errorf("cart 1 at %v, want dock", c.Loc)
	}
}

// TestFailedStationRefusesDocksUntilRepaired: a station that fails under a
// docked cart still lets that cart undock and return, but no cart docks
// there until the repair.
func TestFailedStationRefusesDocksUntilRepaired(t *testing.T) {
	opt := DefaultOptions()
	opt.DockStations = 1
	trip := mustSystem(t, opt).launch.Time
	failAt, repairAt := trip+1, 10*trip
	opt.Faults = &faults.Script{Name: "failed-station", Faults: []faults.Fault{
		{Kind: faults.DockFailure, At: failAt, Duration: repairAt - failAt, Station: 0},
	}}
	s := mustSystem(t, opt)
	var closedAt, openedAt units.Seconds
	s.Open(0, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		s.Engine.MustAfter(2, "test-ops", func() {
			s.Close(0, func(err error) {
				if err != nil {
					t.Error(err)
				}
				closedAt = s.Engine.Now()
			})
			s.Open(1, func(err error) {
				if err != nil {
					t.Error(err)
				}
				openedAt = s.Engine.Now()
			})
		})
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if closedAt == 0 || closedAt >= repairAt {
		t.Errorf("occupant returned at %.3fs, want before the repair at %.3fs",
			float64(closedAt), float64(repairAt))
	}
	if openedAt < repairAt+opt.Core.DockTime {
		t.Errorf("cart 1 docked by %.3fs, before the repair at %.3fs plus a dock",
			float64(openedAt), float64(repairAt))
	}
	if c, _ := s.cart(1); c.Loc != atDock {
		t.Errorf("cart 1 at %v, want dock", c.Loc)
	}
}
