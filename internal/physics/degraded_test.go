package physics

import (
	"testing"

	"repro/internal/units"
)

func TestDegradedCruiseSpeedNominalVacuumKeepsFullSpeed(t *testing.T) {
	// At the paper's rough vacuum the drag on the default cart is well
	// inside the margin, so the cap must not bite — degraded mode only
	// exists for leaks.
	tube := DefaultTube()
	v := DegradedCruiseSpeed(tube, 282, 1000, 200, DefaultDragMargin)
	if v != 200 {
		t.Errorf("cruise speed at rough vacuum = %v, want full 200 m/s", v)
	}
}

func TestDegradedCruiseSpeedCapsDragAtMargin(t *testing.T) {
	// When the cap binds, drag at the returned speed must equal
	// margin × m·a — that is the defining equation.
	tube := DefaultTube()
	tube.Pressure = 10 * RoughVacuumPascal // 10 mbar leak
	const m, a, margin = 282.0, 1000.0, 0.02
	v := DegradedCruiseSpeed(tube, m, a, 200, margin)
	if v >= 200 {
		t.Fatalf("cap did not bind at 10 mbar: v = %v", v)
	}
	drag := 0.5 * tube.AirDensity() * float64(v) * float64(v) * tube.DragCoefficient * tube.CrossSectionArea
	want := margin * units.Grams(m).Kg() * a
	approx(t, "drag at capped speed", drag, want, 1e-9)
}

func TestDegradedCruiseSpeedMonotoneInPressure(t *testing.T) {
	tube := DefaultTube()
	prev := units.MetresPerSecond(1e18)
	for _, p := range []float64{1e2, 1e3, 1e4, 1e5} {
		tube.Pressure = p
		v := DegradedCruiseSpeed(tube, 282, 1000, 200, DefaultDragMargin)
		if v <= 0 || v > 200 {
			t.Errorf("p=%v Pa: v=%v outside (0, 200]", p, v)
		}
		if v > prev {
			t.Errorf("p=%v Pa: v=%v rose above %v; speed must fall as pressure rises", p, v, prev)
		}
		prev = v
	}
}

func TestDegradedCruiseSpeedDegenerateInputs(t *testing.T) {
	// A perfect vacuum (zero density) cannot produce drag: full speed.
	v := DegradedCruiseSpeed(Tube{Pressure: 0, CrossSectionArea: 0.07, DragCoefficient: 1}, 282, 1000, 200, 0.02)
	if v != 200 {
		t.Errorf("zero-density tube: v = %v, want 200", v)
	}
	// Non-positive margin falls back to the default rather than zero.
	tube := DefaultTube()
	tube.Pressure = AtmospherePascal
	withDefault := DegradedCruiseSpeed(tube, 282, 1000, 200, DefaultDragMargin)
	if got := DegradedCruiseSpeed(tube, 282, 1000, 200, 0); got != withDefault {
		t.Errorf("zero margin: v = %v, want default-margin %v", got, withDefault)
	}
}
