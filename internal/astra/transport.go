// Package astra is "astra-lite": a distributed-ML training-iteration
// simulator standing in for the paper's ASTRA-sim study (§IV-E, §V-C). It
// models one DLRM gradient-descent iteration — ingesting the training
// dataset over a communication substrate, computing, and allreducing
// gradients — and accounts the average power of the substrate, reproducing
// Figure 6 and Table VII.
//
// Two substrates are modelled, exactly as in the paper:
//
//   - Optical networks (scenarios A0–C): parallel 400 Gb/s links. The number
//     of links is treated as continuous ("assuming a continuous, not
//     quantised number of links for simplicity").
//   - DHLs: quantised tracks. As in the paper, the DHL is modelled as a
//     high-bandwidth, high-latency layer whose parameters come from the
//     design-space exploration; deliveries arrive in cart quanta.
//
// Calibration (inverted from Table VII; see DESIGN.md §2): the DHL transport
// assumes the §VI dual-track refinement — regenerative braking (50 %,
// mid-range of the paper's quoted 16–70 %) on the loaded leg and a passive
// eddy-current brake on the return leg — giving a steady-state delivery
// cadence of one-way time + unloaded return transit and an average power of
// 1.762 kW for the default DHL versus the paper's 1.75 kW.
package astra

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/physics"
	"repro/internal/units"
)

// Transport is a communication substrate feeding the training cluster.
type Transport interface {
	// Name of the scheme (e.g. "A0", "DHL-200-500-256").
	Name() string
	// DeliverTime is the time to deliver the given volume.
	DeliverTime(b units.Bytes) units.Seconds
	// AveragePower drawn while delivering.
	AveragePower() units.Watts
}

// Optical is n parallel links of one network scenario. Links may be
// fractional (the paper's continuous simplification).
type Optical struct {
	Scenario netmodel.Scenario
	Links    float64
}

// NewOptical validates and builds an optical transport.
func NewOptical(s netmodel.Scenario, links float64) (Optical, error) {
	if links <= 0 {
		return Optical{}, fmt.Errorf("astra: links must be positive, got %v", links)
	}
	return Optical{Scenario: s, Links: links}, nil
}

// OpticalForBudget sizes the link count to a power budget.
func OpticalForBudget(s netmodel.Scenario, budget units.Watts) (Optical, error) {
	per := s.Power().Total()
	if per <= 0 {
		return Optical{}, fmt.Errorf("astra: scenario %v has no per-link power", s)
	}
	return NewOptical(s, float64(budget)/float64(per))
}

// Name implements Transport.
func (o Optical) Name() string { return o.Scenario.String() }

// Bandwidth is the aggregate byte rate.
func (o Optical) Bandwidth() units.BytesPerSecond {
	return units.BytesPerSecond(o.Links * float64(netmodel.LinkBandwidth()))
}

// DeliverTime implements Transport.
func (o Optical) DeliverTime(b units.Bytes) units.Seconds {
	return o.Bandwidth().TransferTime(b)
}

// AveragePower implements Transport.
func (o Optical) AveragePower() units.Watts {
	return units.Watts(o.Links * float64(o.Scenario.Power().Total()))
}

// DefaultRegen is the regenerative-braking efficiency used for the DHL
// transport calibration (§VI: "16%-70%"; we take the middle of the range,
// which also lands the default DHL's average power within 1 % of the
// paper's 1.75 kW budget).
const DefaultRegen = 0.50

// DHL is k parallel DHL tracks in steady-state pipelined operation.
type DHL struct {
	Config core.Config
	Tracks int
	// Regen is the regenerative-braking efficiency on the loaded leg; the
	// unloaded return leg brakes passively (eddy current, §VI).
	Regen float64

	launch core.LaunchMetrics
}

// NewDHL validates and builds a DHL transport.
func NewDHL(cfg core.Config, tracks int, regen float64) (DHL, error) {
	if tracks < 1 {
		return DHL{}, errors.New("astra: need at least one DHL track")
	}
	if regen < 0 || regen > 1 {
		return DHL{}, fmt.Errorf("astra: regen must be in [0,1], got %v", regen)
	}
	l, err := core.Launch(cfg)
	if err != nil {
		return DHL{}, err
	}
	return DHL{Config: cfg, Tracks: tracks, Regen: regen, launch: l}, nil
}

// DefaultDHL is the paper's simulated configuration: one default track,
// 50 % regeneration.
func DefaultDHL() DHL {
	d, err := NewDHL(core.DefaultConfig(), 1, DefaultRegen)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Transport, using the paper's DHL-X-Y-Z notation.
func (d DHL) Name() string { return d.Config.String() }

// CycleTime is the steady-state delivery period of one track: a loaded
// one-way trip (undock + transit + dock) plus the unloaded return transit.
func (d DHL) CycleTime() units.Seconds {
	p, err := physics.NewProfile(d.Config.Length, d.Config.MaxSpeed, d.Config.Acceleration)
	if err != nil {
		// NewDHL validated the config; unreachable.
		panic(err)
	}
	return d.launch.Time + p.TransitTime(d.Config.TimeModel)
}

// CycleEnergy is the electrical energy per delivery cycle: the loaded leg
// with regenerative braking plus the return-leg acceleration (passive eddy
// braking is free).
func (d DHL) CycleEnergy() units.Joules {
	lim := d.Config.LIM
	lim.RegenEfficiency = d.Regen
	m, v := d.Config.Cart.TotalMass, d.Config.MaxSpeed
	loaded := lim.AccelerationEnergy(m, v) + lim.BrakingEnergy(m, v)
	returnLeg := lim.AccelerationEnergy(m, v)
	return loaded + returnLeg
}

// DeliverTime implements Transport: deliveries are quantised to whole carts,
// spread round-robin over the tracks, with the pipeline's fill latency (the
// first cart's one-way time) included.
func (d DHL) DeliverTime(b units.Bytes) units.Seconds {
	if b <= 0 {
		return 0
	}
	cap := float64(d.Config.Cart.Capacity())
	carts := int(math.Ceil(float64(b) / cap))
	perTrack := int(math.Ceil(float64(carts) / float64(d.Tracks)))
	// First delivery lands after one one-way trip; subsequent deliveries
	// every cycle.
	return d.launch.Time + units.Seconds(float64(perTrack-1)*float64(d.CycleTime()))
}

// AveragePower implements Transport.
func (d DHL) AveragePower() units.Watts {
	per := units.Power(d.CycleEnergy(), d.CycleTime())
	return units.Watts(float64(per) * float64(d.Tracks))
}
