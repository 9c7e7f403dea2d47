package cost

import (
	"math"
	"testing"

	"repro/internal/units"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-12) {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, tol*100)
	}
}

func TestReproTableVIIIaRail(t *testing.T) {
	// Table VIII(a): component costs at 100/500/1000 m.
	cases := []struct {
		length               float64
		alu, rail, tube, tot float64
	}{
		{100, 117, 116, 500, 733},
		{500, 585, 580, 2500, 3665},
		{1000, 1170, 1160, 5000, 7330},
	}
	for _, c := range cases {
		r := Rail(units.Metres(c.length))
		approx(t, "aluminium", float64(r.Aluminium), c.alu, 0.005)
		approx(t, "pvc rail", float64(r.PVCRail), c.rail, 0.005)
		approx(t, "pvc tube", float64(r.PVCTube), c.tube, 0.005)
		approx(t, "rail total", float64(r.Total()), c.tot, 0.005)
	}
}

func TestReproTableVIIIbLIM(t *testing.T) {
	// Table VIII(b): copper + VFD at 100/200/300 m/s.
	cases := []struct {
		speed            float64
		copper, vfd, tot float64
	}{
		{100, 792, 8000, 8792},
		{200, 2904, 8000, 10904},
		{300, 6512, 8000, 14512},
	}
	for _, c := range cases {
		l := LIM(units.MetresPerSecond(c.speed))
		approx(t, "copper", float64(l.Copper), c.copper, 0.005)
		approx(t, "vfd", float64(l.VFD), c.vfd, 1e-12)
		approx(t, "lim total", float64(l.Total()), c.tot, 0.005)
	}
}

func TestReproTableVIIIcOverall(t *testing.T) {
	// Table VIII(c): the 3×3 grid.
	want := map[[2]float64]float64{
		{100, 100}: 9525, {100, 200}: 11637, {100, 300}: 15245,
		{500, 100}: 12457, {500, 200}: 14569, {500, 300}: 18177,
		{1000, 100}: 16122, {1000, 200}: 18234, {1000, 300}: 21842,
	}
	for k, w := range want {
		got := Overall(units.Metres(k[0]), units.MetresPerSecond(k[1]))
		approx(t, "overall", float64(got), w, 0.005)
	}
	grid := PaperGrid()
	if len(grid) != 9 {
		t.Fatalf("grid size = %d, want 9", len(grid))
	}
	for _, g := range grid {
		w := want[[2]float64{float64(g.Length), float64(g.Speed)}]
		approx(t, g.String(), float64(g.Total), w, 0.005)
	}
}

func TestCostComparableToSwitch(t *testing.T) {
	// §V-D: "DHL costs roughly twenty thousand dollars, which is a typical
	// price for a large 400gbps switch" — the most expensive configuration
	// stays close to that yardstick.
	max := Overall(1000, 300)
	if max > 1.1*ComparableSwitchCost+2000 {
		t.Errorf("max cost %v should be ≈ a $20k switch", max)
	}
	if max < ComparableSwitchCost {
		t.Errorf("max cost %v should exceed the $20k yardstick slightly", max)
	}
}

func TestCopperMassInterpolation(t *testing.T) {
	// Exact at grid points.
	approx(t, "copper@200", CopperMass(200).Kg(), 2904.0/8.58, 1e-9)
	// Monotone between and beyond grid points.
	prev := units.Grams(0)
	for _, v := range []float64{50, 100, 150, 200, 250, 300, 350} {
		m := CopperMass(units.MetresPerSecond(v))
		if m < prev {
			t.Errorf("copper mass not monotone at %v m/s: %v < %v", v, m, prev)
		}
		prev = m
	}
	// Extrapolation below the grid is clamped at ≥0.
	if CopperMass(0) < 0 {
		t.Error("copper mass must never be negative")
	}
}

func TestCostMonotonicity(t *testing.T) {
	// Longer tracks and faster LIMs must cost more.
	if Overall(500, 200) <= Overall(100, 200) {
		t.Error("cost must grow with distance")
	}
	if Overall(500, 300) <= Overall(500, 100) {
		t.Error("cost must grow with speed")
	}
}
