package core

import (
	"fmt"

	"repro/internal/cart"
	"repro/internal/netmodel"
	"repro/internal/storage"
	"repro/internal/units"
)

// §V-E: minimum specifications for a DHL to outperform optical networking.
// The 6 s dock/undock overhead is unavoidable even for tiny transfers, but
// carts can be launched slowly, so the break-even dataset for a short, slow
// DHL is small: the paper's example (10 m/s, 10 m, 360 GB cart) breaks even
// against a single A0 optical link at roughly 360 GB, with the optical link
// additionally paying ~144 J that the DHL launch does not.

// MinimumSpecConfig is the paper's §V-E operating point: a one-SSD cart
// capped at 360 GB usable, 10 m/s, 10 m track.
func MinimumSpecConfig() Config {
	c := DefaultConfig()
	c.MaxSpeed = 10
	c.Length = 10
	c.Cart = cart.MustNew(cart.Config{
		SSD:            storage.SabrentRocket4Plus,
		NumSSDs:        1,
		FrameMass:      cart.DefaultFrameMass,
		MagnetFraction: cart.MagnetMassFraction,
		FinFraction:    cart.FinMassFraction,
	})
	return c
}

// CrossoverResult describes the break-even point between one DHL launch and
// a single optical link.
type CrossoverResult struct {
	Config Config
	// LaunchTime of one DHL trip (the optical link must beat this).
	LaunchTime units.Seconds
	// BreakEvenDataset: the dataset size at which the optical link takes
	// exactly LaunchTime. Larger transfers favour the DHL.
	BreakEvenDataset units.Bytes
	// OpticalEnergy the link spends over LaunchTime (scenario-dependent).
	OpticalEnergy units.Joules
	// DHLEnergy of the single launch.
	DHLEnergy units.Joules
}

// Crossover computes the break-even dataset for one DHL launch versus a
// single link of the given scenario.
func Crossover(c Config, s netmodel.Scenario) (CrossoverResult, error) {
	l, err := Launch(c)
	if err != nil {
		return CrossoverResult{}, err
	}
	breakEven := units.Bytes(float64(netmodel.LinkBandwidth()) * float64(l.Time))
	return CrossoverResult{
		Config:           c,
		LaunchTime:       l.Time,
		BreakEvenDataset: breakEven,
		OpticalEnergy:    units.Energy(s.Power().Total(), l.Time),
		DHLEnergy:        l.Energy,
	}, nil
}

// DHLWins reports whether a DHL single launch beats the optical link for the
// given dataset: it must fit on the cart and exceed the break-even size.
func (r CrossoverResult) DHLWins(dataset units.Bytes) bool {
	return dataset >= r.BreakEvenDataset && dataset <= r.Config.Cart.Capacity()
}

// EnergyAdvantage is optical energy divided by DHL energy at the break-even
// point (>1 means the DHL also wins on energy).
func (r CrossoverResult) EnergyAdvantage() units.Ratio {
	if r.DHLEnergy <= 0 {
		return units.Ratio(0)
	}
	return units.Ratio(float64(r.OpticalEnergy) / float64(r.DHLEnergy))
}

// String summarises the crossover.
func (r CrossoverResult) String() string {
	return fmt.Sprintf("crossover{%v: break-even %v in %v; optical %v vs DHL %v}",
		r.Config, r.BreakEvenDataset, r.LaunchTime, r.OpticalEnergy, r.DHLEnergy)
}

// MinimumTrackLength returns the shortest track on which the configuration's
// profile is realisable (twice the LIM ramp length).
func MinimumTrackLength(c Config) units.Metres {
	return units.Metres(2 * float64(c.MaxSpeed) * float64(c.MaxSpeed) / (2 * float64(c.Acceleration)))
}

// SpecSearchPoint is one evaluated point of a minimum-specification search.
type SpecSearchPoint struct {
	Config Config
	// Valid is false for grid points that are not physically realisable
	// (e.g. a track too short to reach the speed); such points carry a zero
	// Crossover and never win.
	Valid     bool
	Crossover CrossoverResult
	// Wins reports whether the DHL beats the optical link at the search
	// dataset size (the dataset exceeds break-even and fits on the cart).
	Wins bool
}

// SpecSearchResult is the outcome of MinimumSpecSearch.
type SpecSearchResult struct {
	Dataset  units.Bytes
	Scenario netmodel.Scenario
	// Points holds every grid point in row-major grid order.
	Points []SpecSearchPoint
	// Best is the minimum specification among winning points — smallest
	// cart, then slowest speed, then shortest track — or nil if no point
	// wins. It indexes into Points.
	Best *SpecSearchPoint
}

// MinimumSpecSearch generalises the paper's §V-E argument to a grid: it
// evaluates speed × length × capacity points around base, computes each
// point's break-even against the scenario, and selects the minimum
// specification whose single launch beats the optical link for the given
// dataset. Unrealisable grid points are marked invalid rather than aborting
// the search.
func MinimumSpecSearch(base Config, g FineGrid, dataset units.Bytes, s netmodel.Scenario) (SpecSearchResult, error) {
	if dataset <= 0 {
		return SpecSearchResult{}, fmt.Errorf("core: search dataset must be positive, got %v", dataset)
	}
	if g.Size() == 0 {
		return SpecSearchResult{}, fmt.Errorf("core: empty search grid")
	}
	configs := g.Configs(base)
	res := SpecSearchResult{Dataset: dataset, Scenario: s, Points: make([]SpecSearchPoint, len(configs))}
	for i, c := range configs {
		p := &res.Points[i]
		p.Config = c
		if c.Validate() != nil {
			continue
		}
		r, err := Crossover(c, s)
		if err != nil {
			return SpecSearchResult{}, err
		}
		p.Valid, p.Crossover, p.Wins = true, r, r.DHLWins(dataset)
		if p.Wins && (res.Best == nil || lighterSpec(c, res.Best.Config)) {
			res.Best = p
		}
	}
	return res, nil
}

// lighterSpec orders configurations by how little they demand: smaller cart
// first, then lower speed, then shorter track.
func lighterSpec(a, b Config) bool {
	if ca, cb := a.Cart.Capacity(), b.Cart.Capacity(); ca < cb || cb < ca {
		return ca < cb
	}
	if a.MaxSpeed < b.MaxSpeed || b.MaxSpeed < a.MaxSpeed {
		return a.MaxSpeed < b.MaxSpeed
	}
	return a.Length < b.Length
}
