package netmodel

import (
	"errors"
	"fmt"

	"repro/bench/_twin/internal/units"
)

// Energy-proportional networking (§VII-D): the paper surveys proposals that
// power network links on/off with demand (ElasticTree, energy-efficient
// Ethernet, per-fibre switching). This file models them so the optical
// baseline gets its best case — and so the DHL's complementary benefit is
// quantifiable: moving bulk transfers onto the DHL lets the network links
// that would have carried them sleep.

// ProportionalModel describes how a route's power scales with utilisation.
type ProportionalModel struct {
	// IdleFraction of full power drawn at zero utilisation. Today's optical
	// gear idles near full power (≈0.9); ideal proportionality is 0.
	IdleFraction float64
}

// Typical models.
var (
	// TodayProportional: conventional gear, ~90 % of peak when idle.
	TodayProportional = ProportionalModel{IdleFraction: 0.9}
	// IdealProportional: power tracks utilisation perfectly.
	IdealProportional = ProportionalModel{IdleFraction: 0}
	// OnOff: links power fully off when unused (ElasticTree-style), drawing
	// nothing idle but full power at any non-zero use.
	OnOff = ProportionalModel{IdleFraction: 0}
)

// Validate checks the model.
func (m ProportionalModel) Validate() error {
	if m.IdleFraction < 0 || m.IdleFraction > 1 {
		return fmt.Errorf("netmodel: idle fraction must be in [0,1], got %v", m.IdleFraction)
	}
	return nil
}

// Power is the route's draw at the given utilisation ∈ [0,1].
func (m ProportionalModel) Power(s Scenario, utilisation float64) (units.Watts, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if utilisation < 0 || utilisation > 1 {
		return 0, fmt.Errorf("netmodel: utilisation must be in [0,1], got %v", utilisation)
	}
	full := float64(s.Power().Total())
	return units.Watts(full * (m.IdleFraction + (1-m.IdleFraction)*utilisation)), nil
}

// DailySavings quantifies what offloading a daily bulk transfer to a DHL
// saves the network: the route would have run at full power for the
// transfer time and at idle power for the rest of the day; after
// offloading, an on/off-capable route sleeps entirely.
type DailySavings struct {
	Scenario Scenario
	// TransferTime the bulk volume would occupy the route.
	TransferTime units.Seconds
	// BusyEnergy + IdleEnergy: the day's energy with the bulk on the net.
	BusyEnergy, IdleEnergy units.Joules
	// Saved energy per day once the bulk moves to the DHL (the route
	// powers off; background traffic assumed rerouted).
	Saved units.Joules
}

// OffloadSavings computes the daily savings of moving bulkPerDay off route
// s, for a given proportionality model governing idle power.
func OffloadSavings(s Scenario, bulkPerDay units.Bytes, m ProportionalModel) (DailySavings, error) {
	if bulkPerDay <= 0 {
		return DailySavings{}, errors.New("netmodel: bulk volume must be positive")
	}
	if err := m.Validate(); err != nil {
		return DailySavings{}, err
	}
	t := TransferTime(bulkPerDay)
	if float64(t) > 86400 {
		return DailySavings{}, fmt.Errorf("netmodel: %v does not fit in a day on one link (%v)",
			bulkPerDay, t)
	}
	full := s.Power().Total()
	idlePower := units.Watts(float64(full) * m.IdleFraction)
	busy := units.Energy(full, t)
	idle := units.Energy(idlePower, units.Seconds(86400)-t)
	return DailySavings{
		Scenario:     s,
		TransferTime: t,
		BusyEnergy:   busy,
		IdleEnergy:   idle,
		Saved:        busy + idle,
	}, nil
}
