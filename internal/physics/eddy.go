package physics

import (
	"errors"
	"math"

	"repro/internal/units"
)

// EddyBrake models the §VI passive braking alternative: a set of permanent
// magnets at the end of the track inducing drag in the cart's fin as it
// passes. It consumes no external power (the attraction of a dual-rail DHL
// design: "this would eliminate the power cost of using an LIM for
// braking").
//
// In the linear (low slip) regime the braking force is proportional to
// speed, F = c·v, giving exponential velocity decay; a small coulomb-like
// term f₀ (magnetic hysteresis plus the arrestor latch) brings the cart to
// a complete stop.
type EddyBrake struct {
	// Damping c in N·s/m.
	Damping float64
	// StaticForce f₀ in N.
	StaticForce float64
}

// BrakeForLength sizes a brake that stops the given cart from speed v
// within distance d (so the passive brake fits where the LIM would be).
// The static term is fixed at 2 % of the cart's weight.
func BrakeForLength(mass units.Grams, v units.MetresPerSecond, d units.Metres) (EddyBrake, error) {
	if mass <= 0 || v <= 0 || d <= 0 {
		return EddyBrake{}, errors.New("physics: mass, speed and distance must be positive")
	}
	f0 := 0.02 * mass.Kg() * StandardGravity
	// Solve StoppingDistance(c) = d by bisection on c.
	lo, hi := 1e-9, 1e6
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		b := EddyBrake{Damping: mid, StaticForce: f0}
		if b.StoppingDistance(mass, v) > float64(d) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return EddyBrake{Damping: hi, StaticForce: f0}, nil
}

// StoppingTime from initial speed v0: with m·dv/dt = −(c·v + f₀),
// t = (m/c)·ln(1 + c·v₀/f₀).
func (b EddyBrake) StoppingTime(mass units.Grams, v0 units.MetresPerSecond) units.Seconds {
	m := mass.Kg()
	return units.Seconds(m / b.Damping * math.Log(1+b.Damping*float64(v0)/b.StaticForce))
}

// StoppingDistance from initial speed v0:
// x = (m/c)·(v₀ − (f₀/c)·ln(1 + c·v₀/f₀)).
func (b EddyBrake) StoppingDistance(mass units.Grams, v0 units.MetresPerSecond) float64 {
	m := mass.Kg()
	c := b.Damping
	f0 := b.StaticForce
	v := float64(v0)
	return m / c * (v - f0/c*math.Log(1+c*v/f0))
}

// DissipatedEnergy is the cart's kinetic energy turned to heat in the brake
// (all of it — the point of the passive design is that none returns to the
// grid, but none is drawn from it either).
func (b EddyBrake) DissipatedEnergy(mass units.Grams, v0 units.MetresPerSecond) units.Joules {
	return KineticEnergy(mass, v0)
}
