package physics

import (
	"math"

	"repro/bench/_twin/internal/units"
)

// Vacuum conditions (§IV-B): the tube is evacuated to a rough vacuum
// (~1 millibar), which makes air resistance negligible and is cheap to
// maintain because the tube cross-section is small.
const (
	// RoughVacuumPascal is the paper's example operating pressure (1 mbar).
	RoughVacuumPascal = 100.0
	// AtmospherePascal is standard sea-level pressure.
	AtmospherePascal = 101325.0
	// airGasConstant is the specific gas constant of dry air, J/(kg·K).
	airGasConstant = 287.05
	// roomTemperatureK is the assumed tube temperature.
	roomTemperatureK = 293.15
)

// Tube models the evacuated DHL tube.
type Tube struct {
	// Pressure inside the tube, in pascals.
	Pressure float64
	// CrossSectionArea of the tube bore, in m². The paper's cart payload
	// packs into roughly 60×60×80 mm; a 0.3 m diameter tube bounds it
	// comfortably with rail clearance.
	CrossSectionArea float64
	// DragCoefficient of the cart (bluff body, ~1.0).
	DragCoefficient float64
}

// DefaultTube is a 0.3 m bore at 1 mbar with Cd = 1.
func DefaultTube() Tube {
	r := 0.15
	return Tube{Pressure: RoughVacuumPascal, CrossSectionArea: math.Pi * r * r, DragCoefficient: 1.0}
}

// AirDensity returns the air density inside the tube (ideal gas).
func (t Tube) AirDensity() float64 {
	return t.Pressure / (airGasConstant * roomTemperatureK)
}

// AeroDragForce returns the aerodynamic drag force on the cart at speed v:
// ½ρv²·Cd·A.
func (t Tube) AeroDragForce(v units.MetresPerSecond) float64 {
	return 0.5 * t.AirDensity() * float64(v) * float64(v) * t.DragCoefficient * t.CrossSectionArea
}

// AeroEnergyLoss returns the aerodynamic energy lost cruising distance x at
// speed v.
func (t Tube) AeroEnergyLoss(v units.MetresPerSecond, x units.Metres) units.Joules {
	return units.Joules(t.AeroDragForce(v) * float64(x))
}

// PressureRatio returns the tube pressure as a fraction of one atmosphere.
func (t Tube) PressureRatio() float64 { return t.Pressure / AtmospherePascal }

// NegligibleAero reports whether aerodynamic losses over the track are below
// frac of the launch energy — the paper's justification for neglecting air
// resistance at rough vacuum.
func (t Tube) NegligibleAero(lim LIM, m units.Grams, v units.MetresPerSecond, x units.Metres, frac float64) bool {
	return float64(t.AeroEnergyLoss(v, x)) <= frac*float64(lim.LaunchEnergy(m, v))
}

// SustainingPower estimates the continuous pumping power to hold the
// operating pressure against a leak, modelled as isothermal compression of
// the in-leaking gas back to atmosphere: P = Q·ln(P₀/P), with Q the leak
// rate in Pa·m³/s. The paper's §IV-B claim — "such a vacuum can be created
// with minimal power usage because our hyperloop has a small cross-section
// area" — holds because Q scales with the (small) surface area.
func (t Tube) SustainingPower(leakPaM3PerSec float64) units.Watts {
	if leakPaM3PerSec <= 0 {
		return 0
	}
	if t.Pressure <= 0 {
		return units.Watts(math.Inf(1))
	}
	return units.Watts(leakPaM3PerSec * math.Log(AtmospherePascal/t.Pressure))
}

// TypicalLeakRate estimates the leak rate of a tube of the given length
// from a per-area specific leak of good elastomer-sealed joints
// (~1e-4 Pa·m³/s per m² of surface).
func (t Tube) TypicalLeakRate(length units.Metres) float64 {
	radius := math.Sqrt(t.CrossSectionArea / math.Pi)
	surface := 2 * math.Pi * radius * float64(length)
	return 1e-4 * surface
}

// PumpDownEnergy estimates the isothermal work to evacuate the tube of
// length L from atmosphere to the operating pressure: W = P₀·V·ln(P₀/P).
// This is a one-time cost; the paper treats maintenance power as minimal.
func (t Tube) PumpDownEnergy(length units.Metres) units.Joules {
	v := t.CrossSectionArea * float64(length)
	if t.Pressure <= 0 {
		return units.Joules(math.Inf(1))
	}
	return units.Joules(AtmospherePascal * v * math.Log(AtmospherePascal/t.Pressure))
}
