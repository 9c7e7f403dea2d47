package tubenet

import (
	"context"
	"fmt"
	"sync"

	"repro/bench/_twin/internal/faults"
	"repro/bench/_twin/internal/sweep"
	"repro/bench/_twin/internal/units"
)

// A campus study runs many independent replicas — (scenario, seed) pairs,
// each with its own engine, router, and fleet — in parallel on the sweep
// pool, and aggregates fleet-level counters across them. Replica results
// come back input-ordered (sweep.Map), so the study output is
// byte-identical at any worker count; the running aggregate is updated
// concurrently by the workers, so its totals live behind a mutex with the
// lockcheck annotation proving every access holds it. Only commutative
// integer counters are aggregated concurrently — float sums are folded
// from the ordered results afterwards, keeping them order-independent.

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
	// TotalTransit is folded from the ordered replica results, not the
	// concurrent aggregate, so float addition order is fixed.
	TotalTransit units.Seconds
}

// studyAgg is the concurrent aggregate the sweep workers update.
type studyAgg struct {
	mu sync.Mutex
	// totals accumulates the commutative integer counters.
	//
	//dhllint:guardedby mu
	totals StudyTotals
}

// add folds one replica's counters into the aggregate.
func (a *studyAgg) add(r Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.totals.Replicas++
	a.totals.TripsCompleted += r.TripsCompleted
	a.totals.TripsPending += r.TripsPending
	a.totals.Reroutes += r.Reroutes
	a.totals.Loiters += r.Loiters
	a.totals.Stalls += r.Stalls
}

// snapshot returns the aggregate under the lock.
func (a *studyAgg) snapshot() StudyTotals {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.totals
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
	agg := &studyAgg{}
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
		agg.add(res)
		return Replica{Scenario: scenario, Seed: seed, Result: res}, nil
	}, sweep.Workers(workers))
	if err != nil {
		return nil, StudyTotals{}, err
	}
	totals := agg.snapshot()
	for _, r := range results {
		totals.TotalTransit += r.Result.TotalTransit
	}
	return results, totals, nil
}
