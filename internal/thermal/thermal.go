// Package thermal models the §VI heat-dissipation concern: "An M.2 SSD can
// consume up to 10W under load, hence using many at the same time can
// potentially create a heat dissipation problem. It can be solved by placing
// heat sinks between M.2 connectors to conductively cool them."
//
// The model is a per-SSD lumped RC thermal node: junction temperature rises
// over ambient by P·Rθ in steady state with time constant Rθ·C. A throttle
// ceiling caps sustained power, from which the cart's thermally sustainable
// read bandwidth follows.
package thermal

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/storage"
	"repro/internal/units"
)

// Temperatures in °C.
const (
	// DefaultAmbient is the under-floor air temperature.
	DefaultAmbient = 30.0
	// ThrottleTemp is the junction temperature at which NVMe controllers
	// throttle.
	ThrottleTemp = 70.0
)

// Sink is a per-SSD cooling solution.
type Sink struct {
	Name string
	// Resistance Rθ junction→ambient, K/W.
	Resistance float64
	// Capacitance C of SSD + sink, J/K.
	Capacitance float64
}

// The two §VI alternatives: a bare M.2 stick versus conductive fins between
// connectors.
var (
	// BareM2: a naked stick in still tube air — poor convection, high Rθ.
	BareM2 = Sink{Name: "bare M.2", Resistance: 12, Capacitance: 12}
	// ConductiveFins: the paper's proposal — metal fins between the M.2
	// connectors spreading into the docking station chassis.
	ConductiveFins = Sink{Name: "conductive fins", Resistance: 3, Capacitance: 60}
)

// Validate checks the sink parameters.
func (s Sink) Validate() error {
	if s.Resistance <= 0 || s.Capacitance <= 0 {
		return fmt.Errorf("thermal: sink %q needs positive R and C", s.Name)
	}
	return nil
}

// SteadyTemp is the junction temperature at sustained power p and ambient.
func (s Sink) SteadyTemp(p units.Watts, ambient float64) float64 {
	return ambient + float64(p)*s.Resistance
}

// TimeConstant is Rθ·C.
func (s Sink) TimeConstant() units.Seconds {
	return units.Seconds(s.Resistance * s.Capacitance)
}

// TimeToThrottle is how long the SSD can run at power p before reaching the
// throttle temperature. Returns +Inf if it never throttles at that power.
func (s Sink) TimeToThrottle(p units.Watts, ambient float64) units.Seconds {
	steady := s.SteadyTemp(p, ambient)
	if steady <= ThrottleTemp {
		return units.Seconds(math.Inf(1))
	}
	// ambient + (steady−ambient)(1−e^{−t/τ}) = throttle.
	frac := (ThrottleTemp - ambient) / (steady - ambient)
	return units.Seconds(-float64(s.TimeConstant()) * math.Log(1-frac))
}

// SustainablePower is the largest continuous per-SSD power that stays below
// the throttle ceiling.
func (s Sink) SustainablePower(ambient float64) units.Watts {
	return units.Watts((ThrottleTemp - ambient) / s.Resistance)
}

// CartThermals evaluates a docked cart's thermal budget.
type CartThermals struct {
	Sink    Sink
	NumSSDs int
	Ambient float64
}

// Errors returned by analysis.
var ErrNoSSDs = errors.New("thermal: need at least one SSD")

// Analysis is the thermal verdict for a docked cart under full load.
type Analysis struct {
	// TotalHeat dissipated by the cart at full load.
	TotalHeat units.Watts
	// SteadyTemp per SSD at full 10 W load.
	SteadyTemp float64
	// SustainedFullLoad reports whether full-rate reads run indefinitely.
	SustainedFullLoad bool
	// TimeToThrottle at full load (∞ if SustainedFullLoad).
	TimeToThrottle units.Seconds
	// SustainableReadFraction is the fraction of peak read bandwidth
	// maintainable indefinitely (1 if unthrottled; power ∝ bandwidth).
	SustainableReadFraction float64
}

// Analyze runs the §VI check for a cart.
func Analyze(c CartThermals) (Analysis, error) {
	if err := c.Sink.Validate(); err != nil {
		return Analysis{}, err
	}
	if c.NumSSDs < 1 {
		return Analysis{}, ErrNoSSDs
	}
	full := storage.MaxPowerM2
	a := Analysis{
		TotalHeat:      units.Watts(float64(c.NumSSDs) * float64(full)),
		SteadyTemp:     c.Sink.SteadyTemp(full, c.Ambient),
		TimeToThrottle: c.Sink.TimeToThrottle(full, c.Ambient),
	}
	a.SustainedFullLoad = a.SteadyTemp <= ThrottleTemp
	sustainable := c.Sink.SustainablePower(c.Ambient)
	frac := float64(sustainable) / float64(full)
	if frac > 1 {
		frac = 1
	}
	a.SustainableReadFraction = frac
	return a, nil
}
