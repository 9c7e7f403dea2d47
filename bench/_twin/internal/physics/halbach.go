package physics

import (
	"errors"
	"fmt"
	"math"

	"repro/bench/_twin/internal/units"
)

// Inductrack/Halbach levitation model (§III-A, citing Post & Ryutov and
// Murai & Hasegawa). A Halbach array of permanent magnets moving over
// conductive coils induces currents that levitate the cart. The standard
// closed forms:
//
//	F_lift(v)  = F∞ · v²/(v² + v_c²)
//	F_drag(v)  = F∞ · v·v_c/(v² + v_c²)
//	L/D        = v / v_c
//	F∞         = B₀²·A/(2μ₀) · e^(−2k·gap),  k = 2π/λ
//
// where v_c is the characteristic velocity set by the track coils' R/L
// ratio. The lift-to-drag ratio grows linearly with speed, matching the
// paper's observation that the ring-coil rail exceeds L/D = 50 above a few
// dozen m/s.

// Physical constants.
const (
	// Mu0 is the vacuum permeability, H/m.
	Mu0 = 4 * math.Pi * 1e-7
	// NdFeBRemanence is the remanent field of the paper's neodymium
	// magnets, tesla.
	NdFeBRemanence = 1.4
)

// HalbachArray describes the cart's levitation magnet array.
type HalbachArray struct {
	// PeakField B₀ at the array surface, tesla. A Halbach arrangement
	// concentrates nearly the full remanence on the strong side.
	PeakField float64
	// Wavelength λ of the magnetisation pattern, metres.
	Wavelength float64
	// Area of the array facing the track, m².
	Area float64
	// CharacteristicVelocity v_c of the track coils, m/s. Copper ring coils
	// give a few m/s; L/D at cruise is v/v_c.
	CharacteristicVelocity float64
}

// DefaultHalbach is sized for the paper's default cart: a 0.02 m² array
// (roughly the cart footprint) with a 4 cm wavelength over copper coils.
func DefaultHalbach() HalbachArray {
	return HalbachArray{
		PeakField:              NdFeBRemanence,
		Wavelength:             0.04,
		Area:                   0.02,
		CharacteristicVelocity: 2,
	}
}

// Validate checks the array parameters.
func (h HalbachArray) Validate() error {
	if h.PeakField <= 0 || h.Wavelength <= 0 || h.Area <= 0 || h.CharacteristicVelocity <= 0 {
		return errors.New("physics: halbach parameters must be positive")
	}
	return nil
}

// waveNumber k = 2π/λ.
func (h HalbachArray) waveNumber() float64 { return 2 * math.Pi / h.Wavelength }

// AsymptoticLift is F∞ at the given air gap: the lift force approached at
// high speed, newtons.
func (h HalbachArray) AsymptoticLift(gapM float64) float64 {
	return h.PeakField * h.PeakField * h.Area / (2 * Mu0) * math.Exp(-2*h.waveNumber()*gapM)
}

// Lift is the levitation force at speed v and air gap, newtons.
func (h HalbachArray) Lift(v units.MetresPerSecond, gapM float64) float64 {
	vv := float64(v)
	vc := h.CharacteristicVelocity
	return h.AsymptoticLift(gapM) * vv * vv / (vv*vv + vc*vc)
}

// MagneticDrag is the induced drag force at speed v and air gap, newtons.
func (h HalbachArray) MagneticDrag(v units.MetresPerSecond, gapM float64) float64 {
	vv := float64(v)
	vc := h.CharacteristicVelocity
	return h.AsymptoticLift(gapM) * vv * vc / (vv*vv + vc*vc)
}

// LiftToDrag is v/v_c — the c₁ of the drag model in drag.go.
func (h HalbachArray) LiftToDrag(v units.MetresPerSecond) float64 {
	return float64(v) / h.CharacteristicVelocity
}

// LiftoffSpeed is the speed at which lift equals the cart's weight at the
// given gap; below it the cart rides on auxiliary wheels. Returns +Inf if
// the array can never lift the mass at that gap.
func (h HalbachArray) LiftoffSpeed(mass units.Grams, gapM float64) units.MetresPerSecond {
	w := mass.Kg() * StandardGravity
	fInf := h.AsymptoticLift(gapM)
	if fInf <= w {
		return units.MetresPerSecond(math.Inf(1))
	}
	// F∞·v²/(v²+v_c²) = w → v = v_c·sqrt(w/(F∞−w)).
	vc := h.CharacteristicVelocity
	return units.MetresPerSecond(vc * math.Sqrt(w/(fInf-w)))
}

// EquilibriumGap solves for the air gap at which lift balances the cart's
// weight at cruise speed v (the levitation height). Returns an error if the
// cart cannot levitate at all at that speed.
func (h HalbachArray) EquilibriumGap(mass units.Grams, v units.MetresPerSecond) (float64, error) {
	if err := h.Validate(); err != nil {
		return 0, err
	}
	w := mass.Kg() * StandardGravity
	vv := float64(v)
	vc := h.CharacteristicVelocity
	speedFactor := vv * vv / (vv*vv + vc*vc)
	f0 := h.PeakField * h.PeakField * h.Area / (2 * Mu0) * speedFactor
	if f0 <= w {
		return 0, fmt.Errorf("physics: array lifts %.3g N at zero gap, cart weighs %.3g N", f0, w)
	}
	// w = f0·e^(−2k·g) → g = ln(f0/w)/(2k).
	return math.Log(f0/w) / (2 * h.waveNumber()), nil
}

// HalbachMassBudget checks the paper's §IV-A claim that 10 % of the cart's
// mass in magnets suffices for levitation at a 10 mm air gap: it returns
// the equilibrium gap achievable by an array whose area is derived from the
// magnet mass (volume / thickness) and reports whether it meets the target.
func HalbachMassBudget(cartMass, magnetMass units.Grams, thicknessM float64, v units.MetresPerSecond, targetGapM float64) (gap float64, ok bool, err error) {
	if thicknessM <= 0 {
		return 0, false, errors.New("physics: magnet thickness must be positive")
	}
	// NdFeB density 7.5 g/cm³ = 7500 kg/m³ (§IV-A).
	volume := magnetMass.Kg() / 7500
	h := DefaultHalbach()
	h.Area = volume / thicknessM
	gap, err = h.EquilibriumGap(cartMass, v)
	if err != nil {
		return 0, false, err
	}
	return gap, gap >= targetGapM, nil
}
