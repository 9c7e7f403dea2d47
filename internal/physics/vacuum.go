package physics

import (
	"math"
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
