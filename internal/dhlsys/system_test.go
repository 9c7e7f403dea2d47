package dhlsys

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/track"
	"repro/internal/units"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-12) {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

func mustSystem(t *testing.T, opt Options) *System {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	opt := DefaultOptions()
	opt.NumCarts = 0
	if _, err := New(opt); err == nil {
		t.Error("zero carts must be rejected")
	}
	opt = DefaultOptions()
	opt.FailureRate = 1.5
	if _, err := New(opt); err == nil {
		t.Error("bad failure rate must be rejected")
	}
	opt = DefaultOptions()
	opt.DockStations = 0
	if _, err := New(opt); err == nil {
		t.Error("zero docks must be rejected")
	}
	opt = DefaultOptions()
	opt.Core.Cart = nil
	if _, err := New(opt); err == nil {
		t.Error("invalid core config must be rejected")
	}
}

func TestOpenCloseSingleRoundTrip(t *testing.T) {
	opt := DefaultOptions()
	opt.NumCarts = 1
	s := mustSystem(t, opt)
	var openErr, closeErr error
	opened := false
	s.Open(0, func(err error) {
		openErr = err
		opened = true
		c, _ := s.Cart(0)
		if c.Loc != AtDock {
			t.Errorf("after open, loc = %v", c.Loc)
		}
		s.Close(0, func(err error) { closeErr = err })
	})
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if openErr != nil || closeErr != nil {
		t.Fatalf("open=%v close=%v", openErr, closeErr)
	}
	if !opened {
		t.Fatal("open never completed")
	}
	// One round trip = 2 × analytical launch time (8.6 s each way).
	approx(t, "round trip", float64(end), 2*float64(s.Launch().Time), 1e-9)
	st := s.Stats()
	if st.Launches != 2 {
		t.Errorf("launches = %d, want 2", st.Launches)
	}
	if st.DockOps != 4 {
		t.Errorf("dock ops = %d, want 4", st.DockOps)
	}
	approx(t, "energy", float64(st.Energy), 2*float64(s.Launch().Energy), 1e-9)
	c, _ := s.Cart(0)
	if c.Loc != AtLibrary || c.Busy {
		t.Errorf("cart end state: loc=%v busy=%v", c.Loc, c.Busy)
	}
}

func TestAPIErrorPaths(t *testing.T) {
	s := mustSystem(t, DefaultOptions())
	check := func(name string, want error, got error) {
		t.Helper()
		if !errors.Is(got, want) {
			t.Errorf("%s err = %v, want %v", name, got, want)
		}
	}
	s.Open(99, func(err error) { check("open unknown", ErrUnknownCart, err) })
	s.Close(99, func(err error) { check("close unknown", ErrUnknownCart, err) })
	s.Read(99, units.GB, func(_ units.Seconds, err error) { check("read unknown", ErrUnknownCart, err) })
	s.Close(0, func(err error) { check("close at library", ErrNotDocked, err) })
	s.Read(0, units.GB, func(_ units.Seconds, err error) { check("read at library", ErrNotDocked, err) })
	s.Write(0, units.GB, func(_ units.Seconds, err error) { check("write at library", ErrNotDocked, err) })

	// Open the cart twice: the second is denied because it is busy.
	s.Open(0, func(err error) {
		if err != nil {
			t.Errorf("first open: %v", err)
		}
	})
	s.Open(0, func(err error) { check("open busy", ErrCartBusy, err) })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Now docked: a second Open is denied (not at library).
	s.Open(0, func(err error) { check("open docked", ErrNotAtLibrary, err) })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Denied == 0 {
		t.Error("denied counter must increase")
	}
	if _, err := s.Cart(42); !errors.Is(err, ErrUnknownCart) {
		t.Errorf("Cart() err = %v", err)
	}
}

func TestReadWriteWhileDocked(t *testing.T) {
	opt := DefaultOptions()
	opt.NumCarts = 1
	s := mustSystem(t, opt)
	var wrote, read units.Seconds
	s.Open(0, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		s.Write(0, 256*units.TB, func(d units.Seconds, err error) {
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			wrote = d
			s.Read(0, 256*units.TB, func(d units.Seconds, err error) {
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				read = d
			})
		})
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 8 TB per device at 6 / 7.1 GB/s.
	approx(t, "write time", float64(wrote), 8e12/6e9, 1e-9)
	approx(t, "read time", float64(read), 8e12/7.1e9, 1e-9)
	st := s.Stats()
	if st.BytesWritten != 256*units.TB || st.BytesRead != 256*units.TB {
		t.Errorf("io counters: w=%v r=%v", st.BytesWritten, st.BytesRead)
	}
}

// TestShuttleMatchesAnalyticalModel is the cross-check promised in DESIGN.md:
// a strictly sequential simulated bulk transfer must agree exactly with the
// closed-form model of internal/core.
func TestShuttleMatchesAnalyticalModel(t *testing.T) {
	opt := DefaultOptions()
	opt.NumCarts = 1
	opt.DockStations = 1
	s := mustSystem(t, opt)
	dataset := 10 * s.opt.Core.Cart.Capacity() // exact multiple: 2.56 PB
	res, err := s.Shuttle(ShuttleOptions{Dataset: dataset})
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Transfer(opt.Core, dataset)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deliveries != an.DeliveryTrips {
		t.Errorf("deliveries = %d, want %d", res.Deliveries, an.DeliveryTrips)
	}
	approx(t, "duration vs analytical", float64(res.Duration), float64(an.Time), 1e-9)
	approx(t, "energy vs analytical", float64(res.Energy), float64(an.Energy), 1e-9)
	if res.EffectiveBandwidth() <= 0 {
		t.Error("effective bandwidth must be positive")
	}
}

func TestShuttleValidation(t *testing.T) {
	s := mustSystem(t, DefaultOptions())
	if _, err := s.Shuttle(ShuttleOptions{Dataset: 0}); err == nil {
		t.Error("zero dataset must error")
	}
}

func TestSystemPipelining(t *testing.T) {
	// §V-B: "while processing a cart, launch different ones". With endpoint
	// reads enabled, a 2-cart dual-rail deployment must beat the 1-cart
	// sequential one.
	dataset := 8 * 256 * units.TB

	seq := mustSystem(t, func() Options {
		o := DefaultOptions()
		o.NumCarts = 1
		o.DockStations = 1
		return o
	}())
	seqRes, err := seq.Shuttle(ShuttleOptions{Dataset: dataset, ReadAtEndpoint: true})
	if err != nil {
		t.Fatal(err)
	}

	pipe := mustSystem(t, func() Options {
		o := DefaultOptions()
		o.NumCarts = 4
		o.DockStations = 4
		o.RailMode = track.DualRail
		return o
	}())
	pipeRes, err := pipe.Shuttle(ShuttleOptions{Dataset: dataset, ReadAtEndpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if pipeRes.Duration >= seqRes.Duration {
		t.Fatalf("pipelined %v not faster than sequential %v", pipeRes.Duration, seqRes.Duration)
	}
	// Reading 256 TB at ~227 GB/s takes ~1127 s ≫ trip time, so with 4 carts
	// the reads should overlap almost completely: expect ≥2.5× speedup.
	speedup := float64(seqRes.Duration) / float64(pipeRes.Duration)
	if speedup < 2.5 {
		t.Errorf("pipelining speedup = %.2f, want ≥2.5", speedup)
	}
	// Same energy per launch either way.
	if pipeRes.Deliveries != seqRes.Deliveries {
		t.Errorf("deliveries differ: %d vs %d", pipeRes.Deliveries, seqRes.Deliveries)
	}
}

func TestDualRailFasterThanSingleWithoutReads(t *testing.T) {
	dataset := 6 * 256 * units.TB
	mk := func(mode track.RailMode) ShuttleResult {
		o := DefaultOptions()
		o.NumCarts = 2
		o.DockStations = 2
		o.RailMode = mode
		s := mustSystem(t, o)
		r, err := s.Shuttle(ShuttleOptions{Dataset: dataset})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	single := mk(track.SingleRail)
	dual := mk(track.DualRail)
	if dual.Duration >= single.Duration {
		t.Errorf("dual rail %v not faster than single %v", dual.Duration, single.Duration)
	}
}

func TestFailureInjectionRAID0Strict(t *testing.T) {
	// Recovery.StrictSSD restores the pre-amelioration failure model: any
	// SSD death on a RAID0 cart fails the whole cart and forces redelivery.
	o := DefaultOptions()
	o.NumCarts = 2
	o.FailureRate = 0.35
	o.Seed = 7
	o.Recovery.StrictSSD = true
	s := mustSystem(t, o)
	res, err := s.Shuttle(ShuttleOptions{Dataset: 12 * 256 * units.TB, ReadAtEndpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().FailuresSeen == 0 {
		t.Fatal("expected injected failures at 35% rate over ≥24 launches")
	}
	// Strict RAID0 cannot hide failures: the API must have reported errors
	// and the driver must have redelivered.
	if len(res.FailureErrors) == 0 || res.Retries == 0 {
		t.Errorf("failures=%d retries=%d errors=%d: strict RAID0 failures must surface",
			s.Stats().FailuresSeen, res.Retries, len(res.FailureErrors))
	}
	for _, e := range res.FailureErrors {
		if !errors.Is(e, ErrCartFailed) {
			t.Errorf("unexpected failure error: %v", e)
		}
	}
	if res.Deliveries != 12 {
		t.Errorf("deliveries = %d, want 12 despite failures", res.Deliveries)
	}
}

func TestFailureInjectionRAID0DegradedReads(t *testing.T) {
	// Default policy (§III-D amelioration): a failed SSD on a RAID0 cart
	// degrades capacity and bandwidth — the surviving stripes are served
	// and the delivery stands — instead of failing the whole cart.
	o := DefaultOptions()
	o.NumCarts = 2
	o.FailureRate = 0.35
	o.Seed = 7
	s := mustSystem(t, o)
	res, err := s.Shuttle(ShuttleOptions{Dataset: 12 * 256 * units.TB, ReadAtEndpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FailuresSeen == 0 {
		t.Fatal("expected injected failures at 35% rate over ≥24 launches")
	}
	if res.DegradedDeliveries == 0 || st.DegradedReads == 0 || st.DegradedBytes == 0 {
		t.Errorf("degraded deliveries=%d reads=%d bytes=%v: amelioration should have engaged",
			res.DegradedDeliveries, st.DegradedReads, st.DegradedBytes)
	}
	// Degraded reads replace redeliveries entirely for this workload.
	if res.Retries != 0 {
		t.Errorf("retries = %d, want 0 (degraded reads stand as deliveries)", res.Retries)
	}
	for _, e := range res.FailureErrors {
		if !errors.Is(e, ErrDegradedRead) {
			t.Errorf("unexpected failure error: %v", e)
		}
	}
	if res.Deliveries != 12 {
		t.Errorf("deliveries = %d, want 12", res.Deliveries)
	}
	// The degraded path must serve strictly less than the nominal payload.
	nominal := 12 * 256 * units.TB
	if st.BytesRead >= nominal {
		t.Errorf("bytes read = %v, want < %v (failed stripes are gone)", st.BytesRead, nominal)
	}
}

func TestFailureInjectionRAID5Ameliorates(t *testing.T) {
	// §III-D: "RAID and backups can ameliorate the issue" — with RAID5
	// arrays, single in-flight SSD failures do not cost redeliveries.
	o := DefaultOptions()
	o.NumCarts = 2
	o.FailureRate = 0.35
	o.Seed = 7
	o.RAID = storage.RAID5
	s := mustSystem(t, o)
	res, err := s.Shuttle(ShuttleOptions{Dataset: 12 * 256 * units.TB, ReadAtEndpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().FailuresSeen == 0 {
		t.Fatal("expected injected failures")
	}
	if res.Retries != 0 || len(res.FailureErrors) != 0 {
		t.Errorf("RAID5 should ameliorate single failures: retries=%d errors=%d",
			res.Retries, len(res.FailureErrors))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (units.Seconds, Stats) {
		o := DefaultOptions()
		o.NumCarts = 3
		o.DockStations = 2
		o.FailureRate = 0.2
		o.Seed = 42
		s := mustSystem(t, o)
		res, err := s.Shuttle(ShuttleOptions{Dataset: 9 * 256 * units.TB, ReadAtEndpoint: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration, s.Stats()
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Errorf("simulation not deterministic: %v/%+v vs %v/%+v", d1, s1, d2, s2)
	}
}

func TestLocationString(t *testing.T) {
	if AtLibrary.String() != "library" || InTransit.String() != "transit" || AtDock.String() != "dock" {
		t.Error("location strings wrong")
	}
	if Location(9).String() != "Location(9)" {
		t.Errorf("got %q", Location(9).String())
	}
}

func TestQueueingCounters(t *testing.T) {
	// Two carts, one rail: the second Open must queue.
	o := DefaultOptions()
	o.NumCarts = 2
	s := mustSystem(t, o)
	s.Open(0, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	s.Open(1, func(err error) {
		if err != nil {
			t.Error(err)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Queued == 0 {
		t.Error("second open should have queued on the busy rail")
	}
	// Both docked in the end.
	for id := track.CartID(0); id < 2; id++ {
		c, _ := s.Cart(id)
		if c.Loc != AtDock {
			t.Errorf("cart %d at %v, want dock", id, c.Loc)
		}
	}
}
