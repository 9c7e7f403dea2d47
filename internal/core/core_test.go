package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/netmodel"
	"repro/internal/physics"
	"repro/internal/units"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-12) {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

func TestConfigValidation(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	c.Cart = nil
	if err := c.Validate(); !errors.Is(err, ErrNoCart) {
		t.Errorf("err = %v", err)
	}
	c = DefaultConfig()
	c.DockTime = -1
	if err := c.Validate(); err == nil {
		t.Error("negative dock time must be rejected")
	}
	c = DefaultConfig()
	c.LIM.Efficiency = 0
	if err := c.Validate(); err == nil {
		t.Error("zero efficiency must be rejected")
	}
	c = DefaultConfig()
	c.Length = 30 // < 2×20 m ramps at 200 m/s
	if err := c.Validate(); !errors.Is(err, physics.ErrTrackTooShort) {
		t.Errorf("err = %v", err)
	}
}

func TestConfigString(t *testing.T) {
	if got := DefaultConfig().String(); got != "DHL-200-500-256" {
		t.Errorf("config string = %q", got)
	}
	c := DefaultConfig()
	c.Cart = nil
	if got := c.String(); got != "DHL-200-500-0" {
		t.Errorf("cartless config string = %q", got)
	}
}

// tableVIRowWant captures a printed row of the paper's Table VI.
type tableVIRowWant struct {
	speed, length float64
	ssds          int
	energyKJ      float64
	effGBJ        float64
	timeS         float64
	bwTBs         float64
	peakKW        float64
	speedup       float64
	energyRed     [5]float64 // A0, A1, A2, B, C
}

var tableVI = []tableVIRowWant{
	{100, 500, 32, 3.7, 68, 11, 23, 38, 229.6, [5]float64{16.3, 26.9, 58.7, 204.8, 350.9}},
	{200, 500, 32, 15, 17, 8.6, 30, 75, 295.1, [5]float64{4.1, 6.7, 14.7, 51.2, 87.7}},
	{300, 500, 32, 34, 7.6, 7.8, 33, 113, 324.6, [5]float64{1.8, 3.0, 6.5, 22.8, 39}},
	{200, 100, 32, 15, 17, 6.6, 39, 75, 384.5, [5]float64{4.1, 6.7, 14.7, 51.2, 87.7}},
	{200, 1000, 32, 15, 17, 11, 23, 75, 228.6, [5]float64{4.1, 6.7, 14.7, 51.2, 87.7}},
	{200, 500, 16, 8.6, 15, 8.6, 15, 43, 147.5, [5]float64{3.6, 5.9, 12.8, 44.8, 76.8}},
	{200, 500, 64, 28, 18, 8.6, 60, 140, 587.5, [5]float64{4.4, 7.2, 15.7, 54.9, 94.0}},
	{100, 500, 16, 2.1, 60, 11, 12, 22, 114.8, [5]float64{14.3, 23.6, 51.4, 179.4, 307.3}},
	{100, 500, 64, 7, 73, 11, 46, 70, 457.3, [5]float64{17.5, 28.8, 62.9, 219.5, 376.1}},
	{300, 500, 16, 19, 6.6, 7.8, 16, 64, 162.3, [5]float64{1.6, 2.6, 5.7, 19.9, 34.1}},
	{300, 500, 64, 63, 8, 7.8, 66, 210, 646.4, [5]float64{1.9, 3.2, 7.0, 24.4, 41.8}},
}

func rowConfig(w tableVIRowWant) Config {
	return DefaultConfig().With(units.MetresPerSecond(w.speed), units.Metres(w.length), w.ssds)
}

func TestReproTableVISingleLaunch(t *testing.T) {
	for _, w := range tableVI {
		l, err := Launch(rowConfig(w))
		if err != nil {
			t.Fatalf("%+v: %v", w, err)
		}
		approx(t, l.Config.String()+" energy", l.Energy.KJ(), w.energyKJ, 0.03)
		approx(t, l.Config.String()+" efficiency", l.Efficiency, w.effGBJ, 0.03)
		approx(t, l.Config.String()+" time", float64(l.Time), w.timeS, 0.01)
		approx(t, l.Config.String()+" bandwidth", float64(l.Bandwidth)/1e12, w.bwTBs, 0.035)
		approx(t, l.Config.String()+" peak power", l.PeakPower.KW(), w.peakKW, 0.03)
	}
}

func TestReproTableVI29PB(t *testing.T) {
	for _, w := range tableVI {
		tr, err := Transfer(rowConfig(w), PaperDataset)
		if err != nil {
			t.Fatal(err)
		}
		cmp := CompareAll(tr)
		approx(t, tr.Launch.Config.String()+" speedup",
			float64(cmp[0].TimeSpeedup), w.speedup, 0.015)
		for i, s := range netmodel.Scenarios() {
			approx(t, tr.Launch.Config.String()+" energy reduction "+s.String(),
				float64(cmp[i].EnergyReduction), w.energyRed[i], 0.03)
		}
		// Speedup must be identical across scenarios (network time is
		// scenario-independent).
		for i := 1; i < len(cmp); i++ {
			if cmp[i].TimeSpeedup != cmp[0].TimeSpeedup {
				t.Errorf("speedup differs across scenarios: %v vs %v",
					cmp[i].TimeSpeedup, cmp[0].TimeSpeedup)
			}
		}
	}
}

func TestReproTripCounts(t *testing.T) {
	// §V-B: "DHL needs 227, 114 or 57 trips ... this limitation doubles the
	// number of total trips".
	want := map[int]struct{ deliveries, total int }{
		16: {227, 454},
		32: {114, 227},
		64: {57, 114},
	}
	for ssds, w := range want {
		tr, err := Transfer(DefaultConfig().With(200, 500, ssds), PaperDataset)
		if err != nil {
			t.Fatal(err)
		}
		if tr.DeliveryTrips != w.deliveries {
			t.Errorf("%d SSDs deliveries = %d, want %d", ssds, tr.DeliveryTrips, w.deliveries)
		}
		if tr.TotalTrips != w.total {
			t.Errorf("%d SSDs total trips = %d, want %d", ssds, tr.TotalTrips, w.total)
		}
	}
}

func TestDefaultAveragePower(t *testing.T) {
	// The paper's simulation power budget: the default DHL averages 1.75 kW.
	l, err := Launch(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "average power", l.AveragePower().KW(), 1.75, 0.01)
}

func TestLaunchEmbodiedBandwidthRange(t *testing.T) {
	// §V-A: embodied bandwidth 15–60 TB/s across the sweep at 500 m,
	// i.e. 300–1200× a 50 GB/s optical link.
	lo, err := Launch(DefaultConfig().With(200, 500, 16))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Launch(DefaultConfig().With(200, 500, 64))
	if err != nil {
		t.Fatal(err)
	}
	ratioLo := float64(lo.Bandwidth) / float64(netmodel.LinkBandwidth())
	ratioHi := float64(hi.Bandwidth) / float64(netmodel.LinkBandwidth())
	if ratioLo < 295 || ratioHi > 1210 {
		t.Errorf("embodied BW ratios = %.0f–%.0f, want ≈300–1200", ratioLo, ratioHi)
	}
}

// TestExactTimeModelSlightlySlower pins EXPERIMENTS E4's note over every
// Table VI row: exact trapezoidal kinematics add at most 0.15 s per launch
// (the extra ramp term v/2a peaks at 300 m/s, ≈1.9 %) and never change the
// launch energy.
func TestExactTimeModelSlightlySlower(t *testing.T) {
	const maxDelta, tol = 0.15, 1e-9
	worst := 0.0
	for _, cfg := range DesignSpaceConfigs() {
		paper, err := Launch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.TimeModel = physics.TimeModelExact
		exact, err := Launch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		delta := float64(exact.Time - paper.Time)
		if delta <= 0 || delta > maxDelta+tol {
			t.Errorf("%v: exact−paper time = %v, want (0, %v]", cfg, delta, maxDelta)
		}
		worst = math.Max(worst, delta/float64(paper.Time))
		if exact.Energy != paper.Energy {
			t.Errorf("%v: time model must not change energy", cfg)
		}
	}
	if worst > 0.02 {
		t.Errorf("worst relative slowdown = %.2f %%, want ≤ 2 %%", 100*worst)
	}
}

func TestTransferErrors(t *testing.T) {
	if _, err := Transfer(DefaultConfig(), 0); err == nil {
		t.Error("zero dataset must error")
	}
	if _, err := Transfer(DefaultConfig(), -units.PB); err == nil {
		t.Error("negative dataset must error")
	}
	bad := DefaultConfig()
	bad.Cart = nil
	if _, err := Transfer(bad, units.PB); err == nil {
		t.Error("invalid config must error")
	}
	if _, err := Launch(bad); err == nil {
		t.Error("invalid config must error in Launch")
	}
}

func TestTransferTimeEnergyScaleWithTrips(t *testing.T) {
	tr, err := Transfer(DefaultConfig(), PaperDataset)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "transfer time", float64(tr.Time),
		float64(tr.TotalTrips)*float64(tr.Launch.Time), 1e-12)
	approx(t, "transfer energy", float64(tr.Energy),
		float64(tr.TotalTrips)*float64(tr.Launch.Energy), 1e-12)
}

func TestEnergyMonotonicInSpeedProperty(t *testing.T) {
	f := func(raw float64) bool {
		v := 50 + math.Abs(math.Mod(raw, 200))
		l1, err1 := Launch(DefaultConfig().With(units.MetresPerSecond(v), 500, 32))
		l2, err2 := Launch(DefaultConfig().With(units.MetresPerSecond(v+10), 500, 32))
		if err1 != nil || err2 != nil {
			return false
		}
		// Faster is more expensive but quicker.
		return l2.Energy > l1.Energy && l2.Time < l1.Time
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBiggerCartMoreEfficientProperty(t *testing.T) {
	// §V-A observation (b): increasing cart storage improves GB/J.
	prev := -1.0
	for _, n := range []int{8, 16, 32, 64, 128} {
		l, err := Launch(DefaultConfig().With(200, 500, n))
		if err != nil {
			t.Fatal(err)
		}
		if l.Efficiency <= prev {
			t.Errorf("efficiency not increasing at %d SSDs: %v ≤ %v", n, l.Efficiency, prev)
		}
		prev = l.Efficiency
	}
}

func TestDesignSpaceRowCount(t *testing.T) {
	rows, err := DesignSpace()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 {
		t.Fatalf("design space rows = %d, want 13 (Table VI)", len(rows))
	}
	for _, r := range rows {
		if len(r.Comparisons) != 5 {
			t.Fatalf("row %v has %d comparisons", r.Launch.Config, len(r.Comparisons))
		}
	}
	// Paper headline: energy reductions from 1.6× to 376.1×, speedups from
	// 114.8× to 646.4×.
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
	approx(t, "min energy reduction", minRed, 1.6, 0.02)
	approx(t, "max energy reduction", maxRed, 376.1, 0.02)
	approx(t, "min speedup", minSp, 114.8, 0.015)
	approx(t, "max speedup", maxSp, 646.4, 0.015)
}

func TestFullFactorialSweep(t *testing.T) {
	rows, err := FullFactorialSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 27 {
		t.Fatalf("factorial rows = %d, want 27", len(rows))
	}
	// DHL must beat every network scenario on time in every configuration.
	for _, r := range rows {
		for _, c := range r.Comparisons {
			if c.TimeSpeedup <= 1 {
				t.Errorf("%v vs %v: speedup %v ≤ 1", r.Launch.Config, c.Scenario, c.TimeSpeedup)
			}
		}
	}
}

func TestReproMinimumSpec(t *testing.T) {
	// §V-E: 360 GB carts, 10 m/s, 10 m → one-way ≈ 7 s; a single A0 link
	// moves the break-even ~350–360 GB in the same time while spending
	// ~150 J versus the DHL's few joules.
	r, err := Crossover(MinimumSpecConfig(), netmodel.ScenarioA0)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "launch time", float64(r.LaunchTime), 7.0, 0.03)
	approx(t, "break-even dataset", r.BreakEvenDataset.GBf(), 360, 0.05)
	if r.DHLEnergy.KJ() > 0.05 {
		t.Errorf("minimum-spec launch energy = %v, want minuscule", r.DHLEnergy)
	}
	if r.OpticalEnergy < 10*r.DHLEnergy {
		t.Errorf("optical %v vs DHL %v: want the DHL ≫ cheaper", r.OpticalEnergy, r.DHLEnergy)
	}
	if r.OpticalEnergy.KJ() < 0.1 || r.OpticalEnergy.KJ() > 0.2 {
		t.Errorf("optical energy = %v, want ~144–170 J", r.OpticalEnergy)
	}
	if !r.DHLWins(500 * units.GB) {
		t.Error("500 GB should favour DHL")
	}
	if r.DHLWins(100 * units.GB) {
		t.Error("100 GB should favour optical")
	}
	if r.DHLWins(9 * units.TB) {
		t.Error("datasets beyond cart capacity can't be a single launch")
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestCrossoverDegenerate(t *testing.T) {
	bad := DefaultConfig()
	bad.Cart = nil
	if _, err := Crossover(bad, netmodel.ScenarioA0); err == nil {
		t.Error("invalid config must error")
	}
}

func TestLaunchMetricsString(t *testing.T) {
	l, err := Launch(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if l.String() == "" {
		t.Error("empty String()")
	}
}
