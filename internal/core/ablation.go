package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cart"
	"repro/internal/physics"
	"repro/internal/storage"
	"repro/internal/units"
)

// Ablation studies for the design choices the paper calls out:
//
//   - docking time dominates launch time (§V-A "Time" observation a);
//   - acceleration rate trades peak power against trip time (§V-A note);
//   - regenerative braking recovers 16–70 % of braking energy (§VI);
//   - passive brakes on a dual-rail design "essentially halve" power (§VI);
//   - SSD density scaling upgrades the DHL without touching the track
//     (§II-A), unlike optical networking upgrades.

// DockSensitivityRow is one point of the docking-time ablation.
type DockSensitivityRow struct {
	DockTime  units.Seconds // per operation (applied to both dock and undock)
	Launch    LaunchMetrics
	DockShare float64 // fraction of launch time spent docking
}

// DockTimeSensitivity sweeps the per-operation docking time; rows come back
// in input order.
func DockTimeSensitivity(base Config, dockTimes []units.Seconds) ([]DockSensitivityRow, error) {
	rows := make([]DockSensitivityRow, len(dockTimes))
	for i, d := range dockTimes {
		if d < 0 {
			return nil, fmt.Errorf("core: negative dock time %v", d)
		}
		c := base
		c.DockTime = d
		c.UndockTime = d
		l, err := Launch(c)
		if err != nil {
			return nil, err
		}
		rows[i] = DockSensitivityRow{DockTime: d, Launch: l, DockShare: float64(2*d) / float64(l.Time)}
	}
	return rows, nil
}

// AccelerationRow is one point of the acceleration-rate ablation.
type AccelerationRow struct {
	Acceleration units.MetresPerSecond2
	Launch       LaunchMetrics
	// LIMLength required to reach the max speed at this acceleration.
	LIMLength units.Metres
	// ExtraTime versus the fastest (highest-acceleration) configuration.
	ExtraTime units.Seconds
}

// AccelerationTradeoff sweeps the LIM acceleration. Peak power falls
// linearly with acceleration while the trip lengthens only slightly — the
// §V-A note on reducing peak power.
func AccelerationTradeoff(base Config, accels []units.MetresPerSecond2) ([]AccelerationRow, error) {
	if len(accels) == 0 {
		return nil, errors.New("core: need at least one acceleration")
	}
	rows := make([]AccelerationRow, len(accels))
	fastest := units.Seconds(math.Inf(1))
	for i, a := range accels {
		c := base
		c.Acceleration = a
		l, err := Launch(c)
		if err != nil {
			return nil, err
		}
		rows[i] = AccelerationRow{Acceleration: a, Launch: l, LIMLength: c.LIM.RequiredLength(c.MaxSpeed, a)}
		fastest = min(fastest, l.Time)
	}
	// ExtraTime needs the fastest trip of the whole sweep.
	for i := range rows {
		rows[i].ExtraTime = rows[i].Launch.Time - fastest
	}
	return rows, nil
}

// RegenRow is one point of the regenerative-braking ablation.
type RegenRow struct {
	Regen  float64
	Energy units.Joules
	// Saving versus no regeneration.
	Saving units.Ratio
}

// RegenerativeBrakingSavings sweeps the §VI regeneration efficiency range.
func RegenerativeBrakingSavings(base Config, regens []float64) ([]RegenRow, error) {
	baseline, err := Launch(base)
	if err != nil {
		return nil, err
	}
	rows := make([]RegenRow, len(regens))
	for i, g := range regens {
		lim, err := physics.NewLIM(base.LIM.Efficiency, g)
		if err != nil {
			return nil, err
		}
		c := base
		c.LIM = lim
		l, err := Launch(c)
		if err != nil {
			return nil, err
		}
		rows[i] = RegenRow{Regen: g, Energy: l.Energy, Saving: units.Ratio(float64(baseline.Energy) / float64(l.Energy))}
	}
	return rows, nil
}

// PassiveBrakeSavings compares the primary design (LIM braking at both
// ends) against the §VI dual-rail design with passive eddy-current brakes:
// braking costs nothing, so launch energy is exactly the acceleration half.
func PassiveBrakeSavings(base Config) (active, passive units.Joules, saving units.Ratio, err error) {
	l, err := Launch(base)
	if err != nil {
		return 0, 0, 0, err
	}
	active = l.Energy
	passive = base.LIM.AccelerationEnergy(base.Cart.TotalMass, base.MaxSpeed)
	return active, passive, units.Ratio(float64(active) / float64(passive)), nil
}

// DensityScalingRow is one point of the SSD-density projection.
type DensityScalingRow struct {
	Year int
	// SSDCapacity of the M.2 stick that year.
	SSDCapacity units.Bytes
	// CartCapacity with the same 32-stick cart.
	CartCapacity units.Bytes
	// Launch metrics with the upgraded cart on the *unchanged* track.
	Launch LaunchMetrics
}

// SSDDensityScaling projects the §II-A observation forward: NAND density
// doubles roughly every doublingYears; the cart is re-stuffed with the new
// sticks (same count, same per-stick mass) while the hyperloop itself is
// untouched. Embodied bandwidth and GB/J scale with capacity.
func SSDDensityScaling(base Config, startYear, years, doublingYears int) ([]DensityScalingRow, error) {
	if years < 1 || doublingYears < 1 {
		return nil, errors.New("core: years and doubling period must be positive")
	}
	if base.Cart == nil {
		return nil, ErrNoCart
	}
	rows := make([]DensityScalingRow, 0, years)
	for y := 0; y < years; y++ {
		factor := 1.0
		for i := 0; i < y/doublingYears; i++ {
			factor *= 2
		}
		spec := base.Cart.Config.SSD
		spec.Capacity = units.Bytes(float64(spec.Capacity) * factor)
		cfg := base.Cart.Config
		cfg.SSD = spec
		upgraded, err := cart.New(cfg)
		if err != nil {
			return nil, err
		}
		c := base
		c.Cart = upgraded
		l, err := Launch(c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DensityScalingRow{
			Year:         startYear + y,
			SSDCapacity:  spec.Capacity,
			CartCapacity: upgraded.Capacity(),
			Launch:       l,
		})
	}
	return rows, nil
}

// DefaultDensityScaling projects the default DHL ten years out from 2024
// with a 3-year density doubling, starting from the Table II 8 TB M.2.
func DefaultDensityScaling() ([]DensityScalingRow, error) {
	base := DefaultConfig()
	base.Cart = cart.MustNew(cart.Config{
		SSD:            storage.SabrentRocket4Plus,
		NumSSDs:        32,
		FrameMass:      cart.DefaultFrameMass,
		MagnetFraction: cart.MagnetMassFraction,
		FinFraction:    cart.FinMassFraction,
	})
	return SSDDensityScaling(base, 2024, 10, 3)
}
