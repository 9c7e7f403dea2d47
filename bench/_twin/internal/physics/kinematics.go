// Package physics implements the maglev physics models from §III-A and §IV-A
// of the paper: trapezoidal motion profiles, linear induction motor (LIM)
// acceleration/braking energy, the Inductrack drag model, and the vacuum
// tube model.
//
// Two time models coexist:
//
//   - TimeModelExact: textbook trapezoidal kinematics. A cart accelerating at
//     a to v, cruising, and braking at a covers the track in L/v + v/a.
//   - TimeModelPaper: the accounting the paper's Table VI uses, L/v + v/(2a),
//     which credits the two ramps at half cost (equivalent to charging the
//     ramp distance at full cruise speed). The difference is ≤ 0.15 s for the
//     paper's parameter space.
//
// The reproduction benches use TimeModelPaper; the exact model is available
// for sensitivity studies.
package physics

import (
	"errors"
	"fmt"
	"math"

	"repro/bench/_twin/internal/units"
)

// TimeModel selects how ramp (acceleration/braking) time is charged.
type TimeModel int

const (
	// TimeModelPaper charges t = L/v + v/(2a), matching Table VI.
	TimeModelPaper TimeModel = iota
	// TimeModelExact charges t = L/v + v/a (trapezoidal profile).
	TimeModelExact
)

// String implements fmt.Stringer.
func (m TimeModel) String() string {
	switch m {
	case TimeModelPaper:
		return "paper"
	case TimeModelExact:
		return "exact"
	default:
		return fmt.Sprintf("TimeModel(%d)", int(m))
	}
}

// Errors returned by profile construction.
var (
	ErrNonPositiveSpeed        = errors.New("physics: maximum speed must be positive")
	ErrNonPositiveAcceleration = errors.New("physics: acceleration must be positive")
	ErrNonPositiveLength       = errors.New("physics: track length must be positive")
	ErrTrackTooShort           = errors.New("physics: track shorter than acceleration + braking distance")
)

// Profile is a symmetric trapezoidal velocity profile over a track: constant
// acceleration a up to speed v, cruise, constant deceleration a to rest.
type Profile struct {
	Length       units.Metres
	MaxSpeed     units.MetresPerSecond
	Acceleration units.MetresPerSecond2
}

// NewProfile validates and builds a trapezoidal profile. The track must be at
// least as long as the acceleration plus braking distance (2 × v²/2a); the
// paper sizes its LIMs exactly to that ramp distance.
func NewProfile(length units.Metres, maxSpeed units.MetresPerSecond, accel units.MetresPerSecond2) (Profile, error) {
	p := Profile{Length: length, MaxSpeed: maxSpeed, Acceleration: accel}
	if maxSpeed <= 0 {
		return p, ErrNonPositiveSpeed
	}
	if accel <= 0 {
		return p, ErrNonPositiveAcceleration
	}
	if length <= 0 {
		return p, ErrNonPositiveLength
	}
	if float64(length) < 2*p.rampDistance() {
		//dhllint:allow allocflow -- geometry validation: degraded-physics rebuilds always pass it (the ramp only shrinks)
		return p, fmt.Errorf("%w: need ≥ %.3g m for v=%.4g m/s at a=%.4g m/s²",
			ErrTrackTooShort, 2*p.rampDistance(), float64(maxSpeed), float64(accel))
	}
	return p, nil
}

func (p Profile) rampDistance() float64 {
	v := float64(p.MaxSpeed)
	return v * v / (2 * float64(p.Acceleration))
}

// RampDistance is the distance covered while accelerating from rest to
// MaxSpeed (equal to the braking distance). The paper sizes each LIM to this
// value: 5 m, 20 m and 45 m for 100, 200 and 300 m/s at 1000 m/s².
func (p Profile) RampDistance() units.Metres { return units.Metres(p.rampDistance()) }

// RampTime is the time spent in one ramp (acceleration or braking).
func (p Profile) RampTime() units.Seconds {
	return units.Seconds(float64(p.MaxSpeed) / float64(p.Acceleration))
}

// CruiseDistance is the distance covered at constant MaxSpeed.
func (p Profile) CruiseDistance() units.Metres {
	return units.Metres(float64(p.Length) - 2*p.rampDistance())
}

// CruiseTime is the time spent at constant MaxSpeed.
func (p Profile) CruiseTime() units.Seconds {
	return units.Seconds(float64(p.CruiseDistance()) / float64(p.MaxSpeed))
}

// TransitTime is the rail time (no docking) under the chosen time model.
func (p Profile) TransitTime(m TimeModel) units.Seconds {
	lv := float64(p.Length) / float64(p.MaxSpeed)
	ramp := float64(p.MaxSpeed) / float64(p.Acceleration)
	switch m {
	case TimeModelExact:
		return units.Seconds(lv + ramp)
	default:
		return units.Seconds(lv + ramp/2)
	}
}

// SpeedAt returns the cart speed after travelling distance x from the start
// of the track under the exact trapezoidal profile. It is 0 outside [0, L].
func (p Profile) SpeedAt(x units.Metres) units.MetresPerSecond {
	d := float64(x)
	L := float64(p.Length)
	if d <= 0 || d >= L {
		return 0
	}
	a := float64(p.Acceleration)
	ramp := p.rampDistance()
	switch {
	case d < ramp:
		return units.MetresPerSecond(math.Sqrt(2 * a * d))
	case d > L-ramp:
		return units.MetresPerSecond(math.Sqrt(2 * a * (L - d)))
	default:
		return p.MaxSpeed
	}
}

// PositionAt returns the cart position after t seconds under the exact
// trapezoidal profile, clamped to [0, L].
func (p Profile) PositionAt(t units.Seconds) units.Metres {
	tt := float64(t)
	if tt <= 0 {
		return 0
	}
	a := float64(p.Acceleration)
	v := float64(p.MaxSpeed)
	L := float64(p.Length)
	tr := v / a
	tc := float64(p.CruiseTime())
	switch {
	case tt < tr: // accelerating
		return units.Metres(0.5 * a * tt * tt)
	case tt < tr+tc: // cruising
		return units.Metres(p.rampDistance() + v*(tt-tr))
	case tt < 2*tr+tc: // braking
		tb := tt - tr - tc
		return units.Metres(L - p.rampDistance() + v*tb - 0.5*a*tb*tb)
	default:
		return units.Metres(L)
	}
}

// KineticEnergy returns ½mv² for mass m at speed v.
func KineticEnergy(m units.Grams, v units.MetresPerSecond) units.Joules {
	return units.Joules(0.5 * m.Kg() * float64(v) * float64(v))
}
