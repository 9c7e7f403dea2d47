package main

// Campus mode: instead of the point-to-point library→endpoint shuttle,
// -campus dispatches a cart fleet across the multi-junction tube-network
// graph (internal/tubenet) with congestion-aware routing, optionally under
// the campus chaos scenarios, and -campus-study runs the chaos-vs-calm
// replica comparison used by EXPERIMENTS.md.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/tubenet"
	"repro/internal/units"
)

// campusOptions carries the -campus* flag values into the runner.
type campusOptions struct {
	carts    int
	trips    int
	seed     int64
	epoch    float64
	chaos    string
	horizon  float64
	faultLog bool
	metrics  bool
	study    string
}

// campusEpoch maps the -campus-epoch value onto tubenet's EpochEvery: the
// flag's 0 ("recompute only on faults") is tubenet's negative, because
// tubenet reads a zero EpochEvery as its 30 s default.
func campusEpoch(opt campusOptions) units.Seconds {
	if opt.epoch == 0 {
		return -1
	}
	return units.Seconds(opt.epoch)
}

// campusSim builds the default 4-junction campus and a fleet per opt.
func campusSim(opt campusOptions, set *telemetry.Set) (*tubenet.Campus, error) {
	return tubenet.New(tubenet.Options{
		Carts:        opt.carts,
		TripsPerCart: opt.trips,
		Seed:         opt.seed,
		EpochEvery:   campusEpoch(opt),
		Telemetry:    set,
	})
}

// campusHorizon is the chaos fault horizon: the flag value if set,
// otherwise a window long enough to overlap most of the fleet's trips.
func campusHorizon(opt campusOptions) units.Seconds {
	if opt.horizon > 0 {
		return units.Seconds(opt.horizon)
	}
	return 300
}

func runCampus(opt campusOptions) {
	if opt.study != "" {
		runCampusStudy(opt)
		return
	}
	var set *telemetry.Set
	if opt.metrics {
		set = telemetry.NewSet()
	}
	c, err := campusSim(opt, set)
	if err != nil {
		log.Fatal(err)
	}
	var inj *faults.Injector
	if opt.chaos != "" {
		script, err := faults.ScenarioDims(opt.chaos, opt.seed, campusHorizon(opt), c.Dims())
		if err != nil {
			if errors.Is(err, faults.ErrUnknownScenario) {
				log.Fatal(unknownChaosMessage(err))
			}
			log.Fatal(err)
		}
		if inj, err = faults.NewInjector(c.Engine(), c, script); err != nil {
			log.Fatal(err)
		}
		if err := inj.Arm(); err != nil {
			log.Fatal(err)
		}
	}
	res, err := c.Run()
	if err != nil {
		log.Fatal(err)
	}

	topo := c.Topology()
	fmt.Printf("Campus tube-network simulation: %d stations, %d junction(s), %d segments, seed %d (%s)\n",
		len(topo.Stations()), topo.NumNodes()-len(topo.Stations()), topo.NumEdges(),
		opt.seed, scenarioLabel(opt.chaos))
	fmt.Print(res)
	if opt.faultLog && inj != nil {
		fmt.Println("\nFault event log:")
		for _, line := range inj.LogLines() {
			fmt.Println("  " + line)
		}
	}
	if opt.metrics {
		fmt.Println("\nTelemetry:")
		fmt.Print(telemetry.SummaryTable(set.Metrics.Snapshot()))
		if rollup := telemetry.SpanSummary(set.Spans); rollup != "" {
			fmt.Println()
			fmt.Print(rollup)
		}
	}
}

// runCampusStudy runs the chaos-vs-calm replica comparison: the same fleet
// and seeds once under the chaos scenario (default campus-partition) and
// once fault-free, each replica set fanned out over GOMAXPROCS workers.
func runCampusStudy(opt campusOptions) {
	var seeds []int64
	for _, tok := range strings.Split(opt.study, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		s, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			log.Fatalf("-campus-study: bad seed %q: %v", tok, err)
		}
		seeds = append(seeds, s)
	}
	scenario := opt.chaos
	if scenario == "" {
		scenario = faults.ScenarioCampusPartition
	}
	base := tubenet.Options{
		Carts:        opt.carts,
		TripsPerCart: opt.trips,
		EpochEvery:   campusEpoch(opt),
	}
	ctx := context.Background()
	h := campusHorizon(opt)
	_, chaosTot, err := tubenet.RunStudy(ctx, base, scenario, h, seeds, 0)
	if err != nil {
		log.Fatal(err)
	}
	_, calmTot, err := tubenet.RunStudy(ctx, base, "", h, seeds, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Campus study: %d carts × %d trips, %d replica(s), scenario %s vs fault-free\n",
		opt.carts, opt.trips, len(seeds), scenario)
	fmt.Printf("%-18s %-10s %-9s %-9s %-9s %-8s %-14s\n",
		"condition", "trips-done", "pending", "reroutes", "loiters", "stalls", "mean-transit-s")
	row := func(label string, t tubenet.StudyTotals) {
		mean := 0.0
		if t.TripsCompleted > 0 {
			mean = float64(t.TotalTransit) / float64(t.TripsCompleted)
		}
		fmt.Printf("%-18s %-10d %-9d %-9d %-9d %-8d %-14.3f\n",
			label, t.TripsCompleted, t.TripsPending, t.Reroutes, t.Loiters, t.Stalls, mean)
	}
	row("calm", calmTot)
	row(scenario, chaosTot)
}
