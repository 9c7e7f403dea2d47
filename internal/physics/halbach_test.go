package physics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestHalbachValidate(t *testing.T) {
	if err := DefaultHalbach().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultHalbach()
	bad.PeakField = 0
	if bad.Validate() == nil {
		t.Error("zero field must be invalid")
	}
	bad = DefaultHalbach()
	bad.CharacteristicVelocity = -1
	if bad.Validate() == nil {
		t.Error("negative v_c must be invalid")
	}
}

func TestHalbachLiftToDragMatchesPaper(t *testing.T) {
	// §III-B.2: "a lift force to magnetic drag ratio exceeding 50 at speeds
	// of greater than a few dozen metres per second (assuming copper
	// coils)".
	h := DefaultHalbach()
	if ld := h.LiftToDrag(100); ld < 50 {
		t.Errorf("L/D at 100 m/s = %v, want ≥ 50", ld)
	}
	if ld := h.LiftToDrag(120); ld <= 50 {
		t.Errorf("L/D at 120 m/s = %v, want > 50", ld)
	}
	if ld := h.LiftToDrag(200); ld != 100 {
		t.Errorf("L/D at 200 m/s = %v, want 100", ld)
	}
}

func TestHalbachGapDecay(t *testing.T) {
	// Lift decays exponentially with gap: doubling the gap divides lift by
	// e^(2k·gap).
	h := DefaultHalbach()
	k := 2 * math.Pi / h.Wavelength
	ratio := h.AsymptoticLift(0.02) / h.AsymptoticLift(0.01)
	approx(t, "gap decay", ratio, math.Exp(-2*k*0.01), 1e-9)
}

func TestEquilibriumGapMeetsPaperTarget(t *testing.T) {
	// §IV-A: 10 % of the cart's mass in magnets achieves levitation with a
	// 10 mm air gap. The default cart's 28.2 g of NdFeB at ~5 mm thickness:
	gap, ok, err := HalbachMassBudget(282*units.Gram, 28.2*units.Gram, 0.005, 200, 0.010)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("equilibrium gap = %.1f mm, want ≥ 10 mm", gap*1000)
	}
	if gap > 0.05 {
		t.Errorf("equilibrium gap = %.1f mm implausibly large", gap*1000)
	}
}

func TestEquilibriumGapErrors(t *testing.T) {
	h := DefaultHalbach()
	h.Area = 1e-9
	if _, err := h.EquilibriumGap(282*units.Gram, 200); err == nil {
		t.Error("tiny array must fail to levitate")
	}
	bad := HalbachArray{}
	if _, err := bad.EquilibriumGap(282*units.Gram, 200); err == nil {
		t.Error("invalid array must error")
	}
	if _, _, err := HalbachMassBudget(282*units.Gram, 28.2*units.Gram, 0, 200, 0.01); err == nil {
		t.Error("zero thickness must error")
	}
}

func TestEquilibriumGapConsistency(t *testing.T) {
	// At the equilibrium gap, lift equals weight.
	h := DefaultHalbach()
	m := 282 * units.Gram
	gap, err := h.EquilibriumGap(m, 200)
	if err != nil {
		t.Fatal(err)
	}
	// F_lift(v) = F∞·v²/(v²+v_c²).
	vc := h.CharacteristicVelocity
	lift := h.AsymptoticLift(gap) * 200 * 200 / (200*200 + vc*vc)
	approx(t, "lift at equilibrium", lift, m.Kg()*StandardGravity, 1e-9)
}

func TestEddyBrakeValidation(t *testing.T) {
	if _, err := BrakeForLength(0, 200, 20); err == nil {
		t.Error("zero mass must be rejected")
	}
}

func TestEddyBrakeStopsWithinLIMLength(t *testing.T) {
	// Size a passive brake to stop the default cart from 200 m/s within the
	// 20 m the LIM would occupy.
	m := 282 * units.Gram
	b, err := BrakeForLength(m, 200, 20)
	if err != nil {
		t.Fatal(err)
	}
	d := b.StoppingDistance(m, 200)
	if d > 20.01 || d < 15 {
		t.Errorf("stopping distance = %v m, want ≈20", d)
	}
	if ts := b.StoppingTime(m, 200); ts <= 0 || ts > 2 {
		t.Errorf("stopping time = %v s", float64(ts))
	}
	// All kinetic energy is dissipated, none drawn: 5.64 kJ of heat.
	approx(t, "dissipated", float64(b.DissipatedEnergy(m, 200)), 5638.4, 0.001)
}

func TestEddyBrakeMonotonicityProperty(t *testing.T) {
	m := 282 * units.Gram
	b, err := BrakeForLength(m, 200, 20)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw float64) bool {
		v := 10 + math.Abs(math.Mod(raw, 290))
		d1 := b.StoppingDistance(m, units.MetresPerSecond(v))
		d2 := b.StoppingDistance(m, units.MetresPerSecond(v+5))
		t1 := float64(b.StoppingTime(m, units.MetresPerSecond(v)))
		t2 := float64(b.StoppingTime(m, units.MetresPerSecond(v+5)))
		return d2 > d1 && t2 > t1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
