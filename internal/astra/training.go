package astra

import (
	"errors"
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/units"
)

// Training-run economics (§II-D.3): the paper motivates DHLs with the
// energy bill of large-model training — "we can estimate the ML training
// energy bill at several million dollars" — and Meta's observation that
// "the energy required for data ingestion and pre-processing can be larger
// than that of computation for model training". This file extends the
// per-iteration model to whole training runs and dollar costs.

// ElectricityUSDPerKWh is a typical industrial electricity price.
const ElectricityUSDPerKWh units.USDPerKWh = 0.10

// ComputeClusterPower is the power draw of the training supercomputer
// itself (independent of the communication substrate). A DGX-class 16-node
// cluster draws on the order of 10 kW per node.
const ComputeClusterPower units.Watts = 160 * units.Kilowatt

// TrainingRun is a whole training job: many gradient-descent iterations,
// each re-ingesting the dataset over the communication substrate (the
// paper's DLRM setting where the dataset is streamed from storage per
// pass).
type TrainingRun struct {
	Workload   DLRM
	Iterations int
}

// RunCost summarises a training run on one substrate.
type RunCost struct {
	Transport string
	// Duration of the whole run.
	Duration units.Seconds
	// CommEnergy spent by the communication substrate.
	CommEnergy units.Joules
	// ComputeEnergy spent by the cluster.
	ComputeEnergy units.Joules
	// CommDollars and ComputeDollars at the electricity price.
	CommDollars, ComputeDollars units.USD
	// IngestDominates reports whether communication energy exceeds compute
	// energy — Meta's observation, which DHLs reverse.
	IngestDominates bool
}

// TotalDollars is the whole electricity bill.
func (r RunCost) TotalDollars() units.USD { return r.CommDollars + r.ComputeDollars }

// Evaluate runs the training job on a transport.
func (t TrainingRun) Evaluate(tr Transport) (RunCost, error) {
	if t.Iterations < 1 {
		return RunCost{}, errors.New("astra: need at least one iteration")
	}
	it, err := t.Workload.Iteration(tr)
	if err != nil {
		return RunCost{}, err
	}
	n := float64(t.Iterations)
	dur := units.Seconds(n * float64(it.Total()))
	// The substrate draws its average power during ingest; the cluster
	// draws its power for the whole iteration.
	commE := units.Energy(it.Power, units.Seconds(n*float64(it.Ingest)))
	compE := units.Energy(ComputeClusterPower, dur)
	toUSD := ElectricityUSDPerKWh.Cost
	return RunCost{
		Transport:       tr.Name(),
		Duration:        dur,
		CommEnergy:      commE,
		ComputeEnergy:   compE,
		CommDollars:     toUSD(commE),
		ComputeDollars:  toUSD(compE),
		IngestDominates: commE > compE,
	}, nil
}

// CompareRuns evaluates the run on a DHL and every optical scenario at the
// DHL's power budget, returning the DHL row first.
func (t TrainingRun) CompareRuns(dhl DHL) ([]RunCost, error) {
	rows := make([]RunCost, 0, 6)
	d, err := t.Evaluate(dhl)
	if err != nil {
		return nil, err
	}
	rows = append(rows, d)
	iso, err := IsoPower(t.Workload, dhl)
	if err != nil {
		return nil, err
	}
	for _, r := range iso[1:] {
		// Rebuild the optical transport the iso-power row used.
		opt, err := opticalByName(r.Scheme, dhl.AveragePower())
		if err != nil {
			return nil, err
		}
		rc, err := t.Evaluate(opt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, rc)
	}
	return rows, nil
}

// opticalByName resolves a scenario name back to a budgeted transport.
func opticalByName(name string, budget units.Watts) (Optical, error) {
	for _, s := range netmodel.Scenarios() {
		if s.String() == name {
			return OpticalForBudget(s, budget)
		}
	}
	return Optical{}, fmt.Errorf("astra: unknown scheme %q", name)
}
