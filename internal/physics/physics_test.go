package physics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-12) {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

func mustProfile(t *testing.T, L, v, a float64) Profile {
	t.Helper()
	p, err := NewProfile(units.Metres(L), units.MetresPerSecond(v), units.MetresPerSecond2(a))
	if err != nil {
		t.Fatalf("NewProfile(%v,%v,%v): %v", L, v, a, err)
	}
	return p
}

func TestProfileValidation(t *testing.T) {
	cases := []struct {
		L, v, a float64
		wantErr error
	}{
		{500, 0, 1000, ErrNonPositiveSpeed},
		{500, -10, 1000, ErrNonPositiveSpeed},
		{500, 200, 0, ErrNonPositiveAcceleration},
		{0, 200, 1000, ErrNonPositiveLength},
		{-5, 200, 1000, ErrNonPositiveLength},
		// 300 m/s needs 2×45 m of ramp; an 80 m track is too short.
		{80, 300, 1000, ErrTrackTooShort},
		{500, 200, 1000, nil},
		// Exactly ramp-limited track is allowed (pure triangle profile).
		{40, 200, 1000, nil},
	}
	for _, c := range cases {
		_, err := NewProfile(units.Metres(c.L), units.MetresPerSecond(c.v), units.MetresPerSecond2(c.a))
		if !errors.Is(err, c.wantErr) {
			t.Errorf("NewProfile(%v,%v,%v) err = %v, want %v", c.L, c.v, c.a, err, c.wantErr)
		}
	}
}

func TestRampDistancesMatchPaperLIMLengths(t *testing.T) {
	// Table V: LIM lengths 5, 20, 45 m for max speeds 100, 200, 300 m/s.
	for _, c := range []struct{ v, want float64 }{{100, 5}, {200, 20}, {300, 45}} {
		p := mustProfile(t, 500, c.v, 1000)
		approx(t, "ramp", float64(p.RampDistance()), c.want, 1e-12)
	}
}

func TestTransitTimePaperVsExact(t *testing.T) {
	p := mustProfile(t, 500, 200, 1000)
	// Paper model: 500/200 + 200/2000 = 2.6 s.
	approx(t, "paper transit", float64(p.TransitTime(TimeModelPaper)), 2.6, 1e-12)
	// Exact model: 500/200 + 200/1000 = 2.7 s.
	approx(t, "exact transit", float64(p.TransitTime(TimeModelExact)), 2.7, 1e-12)
	if p.TransitTime(TimeModelExact) <= p.TransitTime(TimeModelPaper) {
		t.Error("exact model must be slower than the paper model")
	}
}

// TestExactTransitLongAndShort checks both shapes of a rest-to-rest run
// (§VI multi-stop hops): a 500 m track reaches 200 m/s and matches the
// trapezoid bit for bit; a 30 m track never does and flies a triangle
// peaking at √(a·d) ≈ 173.2 m/s with transit 2√(d/a).
func TestExactTransitLongAndShort(t *testing.T) {
	peak, transit, err := ExactTransit(500, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if peak != 200 || transit != mustProfile(t, 500, 200, 1000).TransitTime(TimeModelExact) {
		t.Errorf("500 m run: peak %v, transit %v; want the 200 m/s trapezoid", peak, transit)
	}
	peak, transit, err = ExactTransit(30, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "short peak", float64(peak), math.Sqrt(30000), 1e-12)
	approx(t, "short peak (m/s)", float64(peak), 173.2, 1e-4)
	approx(t, "short transit", float64(transit), 2*math.Sqrt(0.03), 1e-12)
	// The triangle and the trapezoid meet at a track exactly two ramps long.
	_, atRamps, err := ExactTransit(40, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	_, justUnder, err := ExactTransit(40-1e-9, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "transit across the ramp boundary", float64(justUnder), float64(atRamps), 1e-9)
	for _, c := range []struct {
		L, v, a float64
		want    error
	}{
		{0, 200, 1000, ErrNonPositiveLength},
		{30, 0, 1000, ErrNonPositiveSpeed},
		{30, 200, 0, ErrNonPositiveAcceleration},
	} {
		if _, _, err := ExactTransit(units.Metres(c.L), units.MetresPerSecond(c.v), units.MetresPerSecond2(c.a)); !errors.Is(err, c.want) {
			t.Errorf("ExactTransit(%v, %v, %v) err = %v, want %v", c.L, c.v, c.a, err, c.want)
		}
	}
}

func TestProfilePhaseDecomposition(t *testing.T) {
	p := mustProfile(t, 500, 200, 1000)
	approx(t, "ramp time", float64(p.RampTime()), 0.2, 1e-12)
	approx(t, "cruise dist", float64(p.CruiseDistance()), 460, 1e-12)
	approx(t, "cruise time", float64(p.CruiseTime()), 2.3, 1e-12)
	// Exact transit equals 2 ramps + cruise.
	total := 2*float64(p.RampTime()) + float64(p.CruiseTime())
	approx(t, "sum of phases", total, float64(p.TransitTime(TimeModelExact)), 1e-12)
}

func TestSpeedAt(t *testing.T) {
	p := mustProfile(t, 500, 200, 1000)
	if p.SpeedAt(0) != 0 || p.SpeedAt(500) != 0 {
		t.Error("speed at endpoints must be 0")
	}
	if got := p.SpeedAt(250); got != 200 {
		t.Errorf("cruise speed = %v, want 200", got)
	}
	// Mid-ramp: after 10 m at 1000 m/s², v = sqrt(2·1000·10) ≈ 141.4.
	approx(t, "mid-ramp speed", float64(p.SpeedAt(10)), math.Sqrt(20000), 1e-12)
	// Symmetric braking ramp.
	approx(t, "brake symmetric", float64(p.SpeedAt(490)), float64(p.SpeedAt(10)), 1e-12)
	if p.SpeedAt(-1) != 0 || p.SpeedAt(501) != 0 {
		t.Error("speed outside track must be 0")
	}
}

func TestPositionAt(t *testing.T) {
	p := mustProfile(t, 500, 200, 1000)
	if p.PositionAt(-1) != 0 || p.PositionAt(0) != 0 {
		t.Error("position at t<=0 must be 0")
	}
	// End of accel ramp: 20 m at t = 0.2 s.
	approx(t, "end of ramp", float64(p.PositionAt(0.2)), 20, 1e-12)
	// Mid cruise: 20 + 200·1.0.
	approx(t, "mid cruise", float64(p.PositionAt(1.2)), 220, 1e-12)
	// Completed.
	if got := p.PositionAt(10); got != 500 {
		t.Errorf("final position = %v, want 500", got)
	}
	// Position exactly at total exact transit time is L.
	approx(t, "at arrival", float64(p.PositionAt(p.TransitTime(TimeModelExact))), 500, 1e-9)
}

func TestPositionMonotonicProperty(t *testing.T) {
	p := mustProfile(t, 500, 200, 1000)
	f := func(a, b float64) bool {
		t1 := math.Abs(math.Mod(a, 3.0))
		t2 := math.Abs(math.Mod(b, 3.0))
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return p.PositionAt(units.Seconds(t1)) <= p.PositionAt(units.Seconds(t2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransitTimeMonotonicInLengthProperty(t *testing.T) {
	f := func(raw float64) bool {
		l1 := 100 + math.Abs(math.Mod(raw, 900))
		l2 := l1 + 50
		p1 := Profile{Length: units.Metres(l1), MaxSpeed: 200, Acceleration: 1000}
		p2 := Profile{Length: units.Metres(l2), MaxSpeed: 200, Acceleration: 1000}
		return p1.TransitTime(TimeModelPaper) < p2.TransitTime(TimeModelPaper) &&
			p1.TransitTime(TimeModelExact) < p2.TransitTime(TimeModelExact)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKineticEnergy(t *testing.T) {
	// ½ × 0.282 kg × (200 m/s)² = 5640 J.
	approx(t, "KE", float64(KineticEnergy(282*units.Gram, 200)), 5640, 1e-12)
	if KineticEnergy(282*units.Gram, 0) != 0 {
		t.Error("KE at rest must be 0")
	}
}

func TestLIMValidation(t *testing.T) {
	if _, err := NewLIM(0, 0); err == nil {
		t.Error("efficiency 0 must be rejected")
	}
	if _, err := NewLIM(1.5, 0); err == nil {
		t.Error("efficiency >1 must be rejected")
	}
	if _, err := NewLIM(0.75, -0.1); err == nil {
		t.Error("negative regen must be rejected")
	}
	if _, err := NewLIM(0.75, 1.1); err == nil {
		t.Error("regen >1 must be rejected")
	}
	l, err := NewLIM(0.75, 0.7)
	if err != nil {
		t.Fatalf("valid LIM rejected: %v", err)
	}
	if l.Efficiency != 0.75 || l.RegenEfficiency != 0.7 {
		t.Errorf("LIM fields = %+v", l)
	}
}

func TestLaunchEnergyMatchesTableVI(t *testing.T) {
	lim := DefaultLIM()
	// Table VI energy column: (mass g, speed, want kJ within rounding).
	cases := []struct {
		mass, v, wantKJ float64
	}{
		{282, 100, 3.7},
		{282, 200, 15},
		{282, 300, 34},
		{161, 200, 8.6},
		{524, 200, 28},
		{161, 100, 2.1},
		{524, 100, 7.0},
		{161, 300, 19},
		{524, 300, 63},
	}
	for _, c := range cases {
		got := lim.LaunchEnergy(units.Grams(c.mass), units.MetresPerSecond(c.v)).KJ()
		approx(t, "launch energy", got, c.wantKJ, 0.03)
	}
}

func TestLIMRegenReducesBrakingEnergy(t *testing.T) {
	base := DefaultLIM()
	regen, _ := NewLIM(0.75, 0.7)
	m, v := 282*units.Gram, units.MetresPerSecond(200)
	if regen.BrakingEnergy(m, v) >= base.BrakingEnergy(m, v) {
		t.Error("regeneration must reduce net braking energy")
	}
	if regen.AccelerationEnergy(m, v) != base.AccelerationEnergy(m, v) {
		t.Error("regeneration must not change acceleration energy")
	}
	// Net braking with full regen at η=1 would be 0.
	perfect, _ := NewLIM(1, 1)
	if perfect.BrakingEnergy(m, v) != 0 {
		t.Errorf("perfect regen braking = %v, want 0", perfect.BrakingEnergy(m, v))
	}
}

func TestPeakPowerMatchesTableVI(t *testing.T) {
	lim := DefaultLIM()
	cases := []struct {
		mass, v, wantKW float64
	}{
		{282, 100, 38},
		{282, 200, 75},
		{282, 300, 113},
		{161, 200, 43},
		{524, 200, 140},
		{161, 100, 22},
		{524, 100, 70},
		{161, 300, 64},
		{524, 300, 210},
	}
	for _, c := range cases {
		got := lim.PeakPower(units.Grams(c.mass), 1000, units.MetresPerSecond(c.v)).KW()
		approx(t, "peak power", got, c.wantKW, 0.03)
	}
}

func TestLIMRequiredLength(t *testing.T) {
	lim := DefaultLIM()
	for _, c := range []struct{ v, want float64 }{{100, 5}, {200, 20}, {300, 45}} {
		got := float64(lim.RequiredLength(units.MetresPerSecond(c.v), 1000))
		approx(t, "LIM length", got, c.want, 1e-12)
	}
}

func TestLaunchEnergyScalesQuadraticallyProperty(t *testing.T) {
	lim := DefaultLIM()
	f := func(raw float64) bool {
		v := 10 + math.Abs(math.Mod(raw, 290))
		e1 := float64(lim.LaunchEnergy(282*units.Gram, units.MetresPerSecond(v)))
		e2 := float64(lim.LaunchEnergy(282*units.Gram, units.MetresPerSecond(2*v)))
		return math.Abs(e2-4*e1) < 1e-6*e2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVacuumTube(t *testing.T) {
	// Density at 1 mbar, 20 °C ≈ 0.00119 kg/m³.
	approx(t, "air density", DefaultTube().AirDensity(), 0.001188, 0.01)
}

func TestTimeModelString(t *testing.T) {
	if TimeModelPaper.String() != "paper" || TimeModelExact.String() != "exact" {
		t.Error("TimeModel strings wrong")
	}
	if TimeModel(9).String() != "TimeModel(9)" {
		t.Errorf("unknown TimeModel string = %q", TimeModel(9).String())
	}
}
