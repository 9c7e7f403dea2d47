package repro

// Root-level integration tests: the paper's headline claims, checked across
// module boundaries. Per-table reproductions live next to the packages that
// implement them; this file asserts the abstract's numbers end to end.

import (
	"math"
	"testing"

	"repro/internal/astra"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dhlsys"
	"repro/internal/netmodel"
	"repro/internal/units"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-12) {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

// TestAbstractEnergyAndTimeHeadlines checks: "we obtain energy reductions of
// 1.6× to 376.1× and time speedups from 114.8× to 646.4× versus 400gbps
// optical networking".
func TestAbstractEnergyAndTimeHeadlines(t *testing.T) {
	rows, err := core.DesignSpace()
	if err != nil {
		t.Fatal(err)
	}
	minRed, maxRed := math.Inf(1), math.Inf(-1)
	minSp, maxSp := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		for _, c := range r.Comparisons {
			minRed = math.Min(minRed, float64(c.EnergyReduction))
			maxRed = math.Max(maxRed, float64(c.EnergyReduction))
		}
		minSp = math.Min(minSp, float64(r.Comparisons[0].TimeSpeedup))
		maxSp = math.Max(maxSp, float64(r.Comparisons[0].TimeSpeedup))
	}
	approx(t, "min energy reduction", minRed, 1.6, 0.03)
	approx(t, "max energy reduction", maxRed, 376.1, 0.03)
	approx(t, "min time speedup", minSp, 114.8, 0.015)
	approx(t, "max time speedup", maxSp, 646.4, 0.015)
}

// TestAbstractEfficiencyHeadline checks: "improved embodied data
// transmission power efficiency of up to 73.3 GB/J".
func TestAbstractEfficiencyHeadline(t *testing.T) {
	l, err := core.Launch(core.DefaultConfig().With(100, 500, 64))
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "peak efficiency", l.Efficiency, 73.3, 0.005)
}

// TestAbstractSimulationHeadlines checks: "time speedups of between 5.7×
// and 118× (iso-power) and communication power reductions of between 6.4×
// and 135× (iso-time)".
func TestAbstractSimulationHeadlines(t *testing.T) {
	w := astra.DefaultDLRM()
	dhl := astra.DefaultDHL()
	iso, err := astra.IsoPower(w, dhl)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "min iso-power slowdown", float64(iso[1].Factor), 5.7, 0.06)
	approx(t, "max iso-power slowdown", float64(iso[5].Factor), 118, 0.06)
	isoT, err := astra.IsoTime(w, dhl)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "min iso-time increase", float64(isoT[1].Factor), 6.4, 0.06)
	approx(t, "max iso-time increase", float64(isoT[5].Factor), 135, 0.06)
}

// TestIntroWeekTransfer checks §I: moving 29 PB at 400 Gb/s "would take
// roughly 1 week", and a 1-hour target needs a 161× network speedup beyond
// 64 Tb/s.
func TestIntroWeekTransfer(t *testing.T) {
	tt := netmodel.TransferTime(core.PaperDataset)
	if tt.Days() < 6.5 || tt.Days() > 7 {
		t.Errorf("29PB transfer = %v days, want ≈1 week", tt.Days())
	}
	speedupFor1h := float64(tt) / 3600
	approx(t, "1-hour speedup", speedupFor1h, 161, 0.01)
	needed := 161 * 400 * units.Gbps
	if needed <= 64*1000*units.Gbps {
		t.Errorf("needed rate %v should exceed 64 Tb/s", needed)
	}
}

// TestCostHeadline checks §V-D: "DHL costs roughly twenty thousand dollars".
func TestCostHeadline(t *testing.T) {
	c := cost.Overall(1000, 300)
	if c < 18000*1 || c > 23000 {
		t.Errorf("max configuration cost = %v, want ≈$20k", c)
	}
}

// TestSimulationAgreesWithClosedForm ties the event-driven system to the
// analytical model across several configurations.
func TestSimulationAgreesWithClosedForm(t *testing.T) {
	for _, ssds := range []int{16, 32, 64} {
		opt := dhlsys.DefaultOptions()
		opt.Core = core.DefaultConfig().With(200, 500, ssds)
		opt.NumCarts = 1
		opt.DockStations = 1
		sys, err := dhlsys.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		dataset := 6 * opt.Core.Cart.Capacity()
		res, err := sys.Shuttle(dhlsys.ShuttleOptions{Dataset: dataset})
		if err != nil {
			t.Fatal(err)
		}
		an, err := core.Transfer(opt.Core, dataset)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "sim vs analytical time", float64(res.Duration), float64(an.Time), 1e-9)
		approx(t, "sim vs analytical energy", float64(res.Energy), float64(an.Energy), 1e-9)
	}
}

// TestEmbodiedBandwidthHeadline checks §V-A: "we obtain from 15 to 60 TB/s,
// which is between 300× and 1200× faster than fibre optic".
func TestEmbodiedBandwidthHeadline(t *testing.T) {
	lo, err := core.Launch(core.DefaultConfig().With(200, 500, 16))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := core.Launch(core.DefaultConfig().With(200, 500, 64))
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "low embodied BW", float64(lo.Bandwidth)/1e12, 15, 0.01)
	approx(t, "high embodied BW", float64(hi.Bandwidth)/1e12, 60, 0.01)
}
