package physics

import (
	"errors"
	"fmt"

	"repro/bench/_twin/internal/units"
)

// DefaultLIMEfficiency is the paper's linear-induction-motor efficiency
// (Table V: "LIM efficiency 75%", citing Higuchi et al.).
const DefaultLIMEfficiency = 0.75

// ErrBadEfficiency is returned for efficiencies outside (0, 1].
var ErrBadEfficiency = errors.New("physics: LIM efficiency must be in (0, 1]")

// LIM models the linear induction motor used both to accelerate and to brake
// carts (§III-B.3/4). The same motor, driven with reversed current, provides
// braking; the paper pessimistically charges braking the same energy as
// acceleration unless regenerative braking is enabled.
type LIM struct {
	// Efficiency is the electrical-to-kinetic conversion efficiency (0,1].
	Efficiency float64
	// RegenEfficiency is the fraction of braking (kinetic) energy recovered
	// electrically. 0 reproduces the paper's pessimistic default; §VI cites
	// implementations between 0.16 and 0.70.
	RegenEfficiency float64
}

// NewLIM builds a LIM with the given efficiencies.
func NewLIM(efficiency, regen float64) (LIM, error) {
	if efficiency <= 0 || efficiency > 1 {
		return LIM{}, fmt.Errorf("%w: got %v", ErrBadEfficiency, efficiency)
	}
	if regen < 0 || regen > 1 {
		return LIM{}, fmt.Errorf("physics: regenerative efficiency must be in [0, 1], got %v", regen)
	}
	return LIM{Efficiency: efficiency, RegenEfficiency: regen}, nil
}

// DefaultLIM is the paper's configuration: 75 % efficient, no regeneration.
func DefaultLIM() LIM { return LIM{Efficiency: DefaultLIMEfficiency} }

// AccelerationEnergy is the electrical energy to accelerate mass m from rest
// to speed v: ½mv²/η.
func (l LIM) AccelerationEnergy(m units.Grams, v units.MetresPerSecond) units.Joules {
	return units.Joules(float64(KineticEnergy(m, v)) / l.Efficiency)
}

// BrakingEnergy is the net electrical energy charged to brake mass m from
// speed v to rest. Without regeneration the paper charges this the same as
// acceleration; with regeneration a fraction of the kinetic energy is
// recovered (net = ½mv²/η − γ·½mv², floored at 0).
func (l LIM) BrakingEnergy(m units.Grams, v units.MetresPerSecond) units.Joules {
	ke := float64(KineticEnergy(m, v))
	net := ke/l.Efficiency - l.RegenEfficiency*ke
	if net < 0 {
		net = 0
	}
	return units.Joules(net)
}

// LaunchEnergy is the total electrical energy for one launch: accelerate then
// brake. With the paper defaults this is 2 × ½mv²/η, reproducing the Energy
// column of Table VI.
func (l LIM) LaunchEnergy(m units.Grams, v units.MetresPerSecond) units.Joules {
	return l.AccelerationEnergy(m, v) + l.BrakingEnergy(m, v)
}

// PeakPower is the peak electrical power drawn during acceleration, reached
// at the end of the ramp: F·v/η = m·a·v/η. Reproduces the Peak Power column
// of Table VI.
func (l LIM) PeakPower(m units.Grams, a units.MetresPerSecond2, v units.MetresPerSecond) units.Watts {
	return units.Watts(m.Kg() * float64(a) * float64(v) / l.Efficiency)
}

// RequiredLength is the stator length needed to reach speed v at constant
// acceleration a: v²/2a. Matches the paper's 5/20/45 m LIMs for
// 100/200/300 m/s at 1000 m/s² (Table V).
func (l LIM) RequiredLength(v units.MetresPerSecond, a units.MetresPerSecond2) units.Metres {
	return units.Metres(float64(v) * float64(v) / (2 * float64(a)))
}
