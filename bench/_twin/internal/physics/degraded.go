package physics

import (
	"math"

	"repro/bench/_twin/internal/units"
)

// Degraded-mode kinematics: §IV-B neglects air resistance because the tube
// holds a rough vacuum, but a leaking tube invalidates that assumption.
// When the pressure rises, cruise drag grows linearly with air density and
// quadratically with speed, eating into the control margin the braking LIM
// relies on to catch the cart inside its ramp. The degraded-mode policy is
// to cap cruise speed so that aerodynamic drag never exceeds a small
// fraction (margin) of the LIM's design thrust m·a — the cart keeps
// moving under partial vacuum, just slower, which is exactly the graceful
// degradation §III-D's failure-amelioration argument needs.

// DefaultDragMargin is the default drag/thrust fraction for degraded-mode
// operation: cruise drag may consume at most 2 % of design thrust. The
// default 282 g cart at 200 m/s sees drag of ~0.6 % of its 282 N design
// thrust at the paper's rough vacuum (1 mbar), so nominal operation keeps
// full speed with headroom; at ten millibars the cap forces a visible
// slowdown (~116 m/s), and near one atmosphere the cart crawls.
const DefaultDragMargin = 0.02

// DegradedCruiseSpeed returns the highest cruise speed at which the tube's
// aerodynamic drag stays within margin × (m·a), capped at the design
// speed. A non-positive margin falls back to DefaultDragMargin.
func DegradedCruiseSpeed(t Tube, m units.Grams, a units.MetresPerSecond2, maxSpeed units.MetresPerSecond, margin float64) units.MetresPerSecond {
	if margin <= 0 {
		margin = DefaultDragMargin
	}
	rho := t.AirDensity()
	cda := t.DragCoefficient * t.CrossSectionArea
	if rho <= 0 || cda <= 0 {
		return maxSpeed
	}
	// Drag ½ρv²CdA = margin·m·a  ⇒  v = √(2·margin·m·a / (ρ·CdA)).
	thrust := margin * m.Kg() * float64(a)
	v := units.MetresPerSecond(math.Sqrt(2 * thrust / (rho * cda)))
	if v > maxSpeed {
		return maxSpeed
	}
	return v
}
