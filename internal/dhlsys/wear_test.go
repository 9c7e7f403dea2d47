package dhlsys

import (
	"testing"

	"repro/internal/fleet"
	"repro/internal/units"
)

func wearOptions(t *testing.T, conn fleet.Connector) Options {
	t.Helper()
	opt := DefaultOptions()
	opt.NumCarts = 1
	f, err := fleet.New(conn, fleet.DefaultPolicy(), opt.NumCarts)
	if err != nil {
		t.Fatal(err)
	}
	opt.Wear = f
	return opt
}

func TestWearTriggersConnectorService(t *testing.T) {
	// A tiny rated life forces services during a modest transfer: with 10
	// rated cycles and service at 80 %, every 8 mating cycles (= 4 round
	// trips) the cart is re-connectored at the library.
	conn := fleet.Connector{Name: "fragile", RatedCycles: 10, ReplaceCost: 5, ReplaceTime: 100}
	opt := wearOptions(t, conn)
	s := mustSystem(t, opt)
	res, err := s.Shuttle(ShuttleOptions{Dataset: 12 * 256 * units.TB})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// 12 deliveries = 24 mating cycles → 3 services.
	if st.ConnectorServices != 3 {
		t.Errorf("services = %d, want 3", st.ConnectorServices)
	}
	if st.MaintenanceTime != 300 || st.MaintenanceCost != 15 {
		t.Errorf("maintenance = %v / %v", st.MaintenanceTime, st.MaintenanceCost)
	}
	// The downtime appears in the makespan: baseline 12 round trips of
	// 17.2 s plus 3 × 100 s of service.
	base := 12 * 2 * float64(s.launch.Time)
	want := base + 300
	got := float64(res.Duration)
	if got < want-1 || got > want+1 {
		t.Errorf("duration = %v, want ≈%v", got, want)
	}
}

func TestUSBCConnectorNeedsNoServiceAtCampaignScale(t *testing.T) {
	// §VI: USB-C's 10k-cycle rating survives a whole 29 PB-scale campaign
	// untouched (the M.2 edge connector would have been serviced dozens of
	// times).
	opt := wearOptions(t, fleet.USBC)
	s := mustSystem(t, opt)
	if _, err := s.Shuttle(ShuttleOptions{Dataset: 100 * 256 * units.TB}); err != nil {
		t.Fatal(err)
	}
	if s.Stats().ConnectorServices != 0 {
		t.Errorf("USB-C services = %d, want 0", s.Stats().ConnectorServices)
	}
	cycles, err := opt.Wear.Cycles(0)
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 200 {
		t.Errorf("cycles = %d, want 200 (100 round trips × 2)", cycles)
	}
}

func TestM2EdgeConnectorServicedDuringCampaign(t *testing.T) {
	opt := wearOptions(t, fleet.M2Edge) // 300 cycles, service at 240
	s := mustSystem(t, opt)
	if _, err := s.Shuttle(ShuttleOptions{Dataset: 150 * 256 * units.TB}); err != nil {
		t.Fatal(err)
	}
	// 150 deliveries = 300 cycles → one service at cycle 240.
	if s.Stats().ConnectorServices != 1 {
		t.Errorf("services = %d, want 1", s.Stats().ConnectorServices)
	}
}
