package tubenet

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/sweep"
	"repro/internal/units"
)

// A campus study runs many independent replicas — (scenario, seed) pairs,
// each with its own engine, router, and fleet — in parallel on the sweep
// pool, and aggregates fleet-level counters across them. Replica results
// come back input-ordered (sweep.Map), and the totals are folded from
// those ordered results afterwards, so the study output is byte-identical
// at any worker count.

// Replica identifies one study run and its outcome.
type Replica struct {
	Scenario string
	Seed     int64
	Result   Result
}

// StudyTotals is the cross-replica aggregate.
type StudyTotals struct {
	Replicas       int
	TripsCompleted int
	TripsPending   int
	Reroutes       int
	Loiters        int
	Stalls         int
	TotalTransit   units.Seconds
}

// RunStudy executes one campus replica per seed under the named chaos
// scenario ("" disables chaos), fanned out on the sweep pool with the
// given worker bound. Every replica builds its own Campus from opt with
// its seed; horizon scales the generated fault script. Results are
// returned in seed order.
func RunStudy(ctx context.Context, opt Options, scenario string, horizon units.Seconds, seeds []int64, workers int) ([]Replica, StudyTotals, error) {
	if len(seeds) == 0 {
		return nil, StudyTotals{}, fmt.Errorf("%w: study needs at least one seed", ErrBadOptions)
	}
	results, err := sweep.Map(ctx, seeds, func(_ context.Context, seed int64) (Replica, error) {
		o := opt
		o.Seed = seed
		o.Telemetry = nil // replicas run concurrently; span logs are not shareable
		c, err := New(o)
		if err != nil {
			return Replica{}, err
		}
		if scenario != "" {
			script, err := faults.ScenarioDims(scenario, seed, horizon, c.Dims())
			if err != nil {
				return Replica{}, err
			}
			inj, err := faults.NewInjector(c.Engine(), c, script)
			if err != nil {
				return Replica{}, err
			}
			if err := inj.Arm(); err != nil {
				return Replica{}, err
			}
		}
		res, err := c.Run()
		if err != nil {
			return Replica{}, err
		}
		return Replica{Scenario: scenario, Seed: seed, Result: res}, nil
	}, sweep.Workers(workers))
	if err != nil {
		return nil, StudyTotals{}, err
	}
	totals := StudyTotals{Replicas: len(results)}
	for _, r := range results {
		totals.TripsCompleted += r.Result.TripsCompleted
		totals.TripsPending += r.Result.TripsPending
		totals.Reroutes += r.Result.Reroutes
		totals.Loiters += r.Result.Loiters
		totals.Stalls += r.Result.Stalls
		totals.TotalTransit += r.Result.TotalTransit
	}
	return results, totals, nil
}
