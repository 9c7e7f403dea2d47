package dhlsys

import (
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/storage"
	"repro/internal/track"
	"repro/internal/units"
)

// TestOutOfRangeCartIDsAreUnknown: the cart table is indexed by ID, so
// both a negative ID and one past the fleet must be ErrUnknownCart on
// every API entry point, denied without touching any cart.
func TestOutOfRangeCartIDsAreUnknown(t *testing.T) {
	opt := DefaultOptions()
	s := mustSystem(t, opt)
	for _, id := range []track.CartID{track.NoCart, -5, track.CartID(opt.NumCarts), 1 << 20} {
		var got []error
		s.Open(id, func(err error) { got = append(got, err) })
		s.Close(id, func(err error) { got = append(got, err) })
		s.Read(id, units.GB, func(_ units.Seconds, err error) { got = append(got, err) })
		s.Write(id, units.GB, func(_ units.Seconds, err error) { got = append(got, err) })
		_, err := s.Cart(id)
		got = append(got, err)
		for i, err := range got {
			if !errors.Is(err, ErrUnknownCart) {
				t.Errorf("cart %d call %d: err = %v, want ErrUnknownCart", id, i, err)
			}
		}
	}
	if st := s.Stats(); st.Denied != 16 {
		t.Errorf("denied = %d, want 16", st.Denied)
	}
	if s.Engine.Pending() != 0 {
		t.Errorf("%d events scheduled by denied requests", s.Engine.Pending())
	}
}

// TestFaultsNamingUnknownCartsAreNoOps strikes SSD-failure and cart-stall
// faults naming carts outside the fleet while cart 0 is in transit: the run
// must end exactly as one without them.
func TestFaultsNamingUnknownCartsAreNoOps(t *testing.T) {
	run := func(strike bool) (units.Seconds, Stats) {
		opt := DefaultOptions()
		s := mustSystem(t, opt)
		s.Open(0, func(err error) {
			if err != nil {
				t.Errorf("open: %v", err)
			}
		})
		if strike {
			tgt := faultTarget{s}
			mid := opt.Core.UndockTime + s.transitTime()/2
			s.Engine.MustAfter(mid, "probe", func() {
				for _, id := range []track.CartID{track.CartID(opt.NumCarts), 99, -3} {
					f := faults.Fault{Kind: faults.SSDFailure, Cart: id, Device: 0}
					tgt.Inject(f)
					tgt.Recover(f)
					tgt.Inject(faults.Fault{Kind: faults.CartStall, Cart: id, Duration: 30})
				}
			})
		}
		end, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return end, s.Stats()
	}
	end0, st0 := run(false)
	end1, st1 := run(true)
	if end1 != end0 || st1 != st0 {
		t.Errorf("faults on unknown carts changed the run: end %v stats %+v, want %v %+v", end1, st1, end0, st0)
	}
	if st1.FailuresSeen != 0 || st1.Stalls != 0 {
		t.Errorf("failures %d stalls %d, want 0", st1.FailuresSeen, st1.Stalls)
	}
}

// TestNegativeSizeOnFailedCart pins the error a negative-size transfer
// gets from a docked cart, healthy or past its redundancy, under both
// recovery policies. The array's health decides first: a failed cart
// rejects writes (and strict reads) as failed whatever the size, and a
// non-strict read goes down the degraded path. There a RAID0 survivor
// share scales the size and the negative length is reported; a RAID5
// array past its redundancy has no survivor share, scales the size to
// -0, and serves that as an empty degraded read.
func TestNegativeSizeOnFailedCart(t *testing.T) {
	cases := []struct {
		name      string
		raid      storage.RAIDLevel
		fail      int // devices failed after docking
		strict    bool
		read      error
		write     error
		preloaded bool
	}{
		{"raid0 healthy", storage.RAID0, 0, false, storage.ErrNegativeLength, storage.ErrNegativeLength, true},
		{"raid0 failed", storage.RAID0, 1, false, storage.ErrNegativeLength, ErrCartFailed, true},
		{"raid0 failed empty", storage.RAID0, 1, false, storage.ErrNegativeLength, ErrCartFailed, false},
		{"raid0 failed strict", storage.RAID0, 1, true, ErrCartFailed, ErrCartFailed, true},
		{"raid5 degraded", storage.RAID5, 1, true, storage.ErrNegativeLength, storage.ErrNegativeLength, true},
		{"raid5 failed", storage.RAID5, 2, false, ErrDegradedRead, ErrCartFailed, true},
		{"raid5 failed strict", storage.RAID5, 2, true, ErrCartFailed, ErrCartFailed, true},
	}
	for _, tc := range cases {
		opt := DefaultOptions()
		opt.NumCarts = 1
		opt.RAID = tc.raid
		opt.Recovery.StrictSSD = tc.strict
		s := mustSystem(t, opt)
		if tc.preloaded {
			if err := s.PreloadFleet(); err != nil {
				t.Fatal(err)
			}
		}
		var readErr, writeErr error
		s.Open(0, func(err error) {
			if err != nil {
				t.Fatalf("%s: open: %v", tc.name, err)
			}
			c, _ := s.Cart(0)
			for i := 0; i < tc.fail; i++ {
				if err := c.Array.FailDevice(i); err != nil {
					t.Fatal(err)
				}
			}
			s.Write(0, -units.GB, func(_ units.Seconds, err error) { writeErr = err })
			s.Read(0, -units.GB, func(_ units.Seconds, err error) { readErr = err })
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if !errors.Is(readErr, tc.read) {
			t.Errorf("%s: read err = %v, want %v", tc.name, readErr, tc.read)
		}
		if !errors.Is(writeErr, tc.write) {
			t.Errorf("%s: write err = %v, want %v", tc.name, writeErr, tc.write)
		}
		wantDegraded := 0
		if tc.read == ErrDegradedRead {
			wantDegraded = 1
		}
		if st := s.Stats(); st.Denied != 2-wantDegraded || st.DegradedReads != wantDegraded || st.DegradedBytes != 0 {
			t.Errorf("%s: denied %d, degraded reads %d of %v, want %d, %d of 0B",
				tc.name, st.Denied, st.DegradedReads, st.DegradedBytes, 2-wantDegraded, wantDegraded)
		}
	}
}
