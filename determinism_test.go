package repro

// Repository-wide determinism regression: run a representative slice of
// every stochastic or parallel subsystem twice in-process and assert the
// serialized outputs are byte-identical. This is the executable form of
// the invariants dhllint enforces statically (no ambient clocks or RNGs,
// no map-order leakage, injected seeds): if either side regresses, two
// consecutive runs stop agreeing and this test fails before a sweep
// byte-identity bug ships.

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datamap"
	"repro/internal/dhlsys"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/track"
	"repro/internal/tubenet"
	"repro/internal/units"
	"repro/internal/workload"
)

// shuttleScenarios lists the chaos scenarios that apply to a
// point-to-point shuttle deployment. campus-partition targets the tubenet
// campus graph (Dims.Segments >= 1) and has its own determinism pin in
// TestCampusSimulationIsByteIdentical.
func shuttleScenarios() []string {
	var names []string
	for _, s := range faults.ScenarioNames() {
		if s != faults.ScenarioCampusPartition {
			names = append(names, s)
		}
	}
	return names
}

// serialize renders any value to the exact bytes a report would emit.
func serialize(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestDesignSpaceSweepIsByteIdenticalAcrossRuns(t *testing.T) {
	run := func() string {
		rows, err := core.DesignSpace()
		if err != nil {
			t.Fatal(err)
		}
		return serialize(t, rows)
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("design-space sweep differs between runs:\n%s\nvs\n%s", first, second)
	}
}

func TestWorkloadGenerationIsByteIdenticalAcrossRuns(t *testing.T) {
	run := func() string {
		var out []workload.Trace
		pb, err := workload.DefaultPhysicsBurst().Generate()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := workload.DefaultBulkBackup().Generate()
		if err != nil {
			t.Fatal(err)
		}
		ml, err := workload.DefaultMLEpochs().Generate()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pb, bb, ml)
		return serialize(t, out)
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("workload generation differs between runs:\n%s\nvs\n%s", first, second)
	}
}

func TestFailureInjectedShuttleIsByteIdenticalAcrossRuns(t *testing.T) {
	run := func() string {
		opt := dhlsys.DefaultOptions()
		opt.FailureRate = 0.2
		opt.Seed = 42
		s, err := dhlsys.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Shuttle(dhlsys.ShuttleOptions{
			Dataset:        4 * 256 * units.TB,
			ReadAtEndpoint: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// %+v snapshots every counter, including failure/retry paths that
		// consume the injected RNG.
		return fmt.Sprintf("%+v\n%+v", res, s.Stats())
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("failure-injected shuttle differs between runs:\n%s\nvs\n%s", first, second)
	}
}

// chaosRun executes one full chaos shuttle and renders every observable
// artefact — fault event log, shuttle result, stats, availability report —
// as one string. Two identical (scenario, seed) runs must agree on every
// byte of it.
func chaosRun(t *testing.T, scenario string, seed int64) string {
	t.Helper()
	opt := dhlsys.DefaultOptions()
	opt.Seed = seed
	script, err := faults.ScenarioDims(scenario, seed, 60,
		faults.Dims{Carts: opt.NumCarts, Stations: opt.DockStations, DevicesPerCart: opt.Core.Cart.Config.NumSSDs})
	if err != nil {
		t.Fatal(err)
	}
	opt.Faults = &script
	s, err := dhlsys.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Shuttle(dhlsys.ShuttleOptions{
		Dataset:        4 * 256 * units.TB,
		ReadAtEndpoint: true,
	})
	if err != nil {
		t.Fatalf("%s: %v", scenario, err)
	}
	return fmt.Sprintf("%s\n%+v\n%+v\n%v",
		strings.Join(s.FaultLog(), "\n"), res, s.Stats(), s.Report())
}

// telemetryChaosRun executes one instrumented chaos shuttle against the
// given collector set and returns the serialized metrics snapshot and
// Chrome trace export — the two telemetry artefacts whose byte-identity
// the exporters guarantee.
func telemetryChaosRun(t *testing.T, set *telemetry.Set, scenario string, seed int64) (string, string) {
	t.Helper()
	opt := dhlsys.DefaultOptions()
	opt.Seed = seed
	opt.Telemetry = set
	script, err := faults.ScenarioDims(scenario, seed, 60,
		faults.Dims{Carts: opt.NumCarts, Stations: opt.DockStations, DevicesPerCart: opt.Core.Cart.Config.NumSSDs})
	if err != nil {
		t.Fatal(err)
	}
	opt.Faults = &script
	s, err := dhlsys.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Shuttle(dhlsys.ShuttleOptions{
		Dataset:        4 * 256 * units.TB,
		ReadAtEndpoint: true,
	}); err != nil {
		t.Fatalf("%s: %v", scenario, err)
	}
	snap := serialize(t, s.MetricsSnapshot())
	trace, err := telemetry.ChromeTrace(opt.Telemetry.Spans)
	if err != nil {
		t.Fatal(err)
	}
	return snap, string(trace)
}

// TestTelemetryExportsAreByteIdenticalAcrossRuns pins the telemetry
// determinism contract: two instrumented runs of the same (scenario, seed)
// must serialize to the same metrics-snapshot JSON and the same Chrome
// trace bytes, making exports diffable artefacts like every other report.
func TestTelemetryExportsAreByteIdenticalAcrossRuns(t *testing.T) {
	for _, scenario := range shuttleScenarios() {
		snap1, trace1 := telemetryChaosRun(t, telemetry.NewSet(), scenario, 1337)
		snap2, trace2 := telemetryChaosRun(t, telemetry.NewSet(), scenario, 1337)
		if snap1 != snap2 {
			t.Errorf("chaos scenario %s: metrics snapshots differ between runs:\n%s\nvs\n%s",
				scenario, snap1, snap2)
		}
		if trace1 != trace2 {
			t.Errorf("chaos scenario %s: Chrome traces differ between runs:\n%s\nvs\n%s",
				scenario, trace1, trace2)
		}
		// Prometheus text is derived from the snapshot; a cheap extra pin.
		if p1, p2 := telemetry.PrometheusText(mustSnap(t, snap1)), telemetry.PrometheusText(mustSnap(t, snap2)); p1 != p2 {
			t.Errorf("chaos scenario %s: Prometheus expositions differ", scenario)
		}
	}
}

// TestTelemetryRecycledSetIsByteIdentical pins the pooling contract: a
// long-lived Set reused across runs via Reset must export the same bytes
// as a freshly constructed one — recycled record, string-table, and
// arg-store buffers leak nothing between runs, and re-interned StrIDs
// resolve to the same names.
func TestTelemetryRecycledSetIsByteIdentical(t *testing.T) {
	shared := telemetry.NewSet()
	// Warm the shared set on a different scenario first, so stale state
	// from a dissimilar run would show up in the comparison below.
	scenarios := shuttleScenarios()
	if len(scenarios) > 1 {
		telemetryChaosRun(t, shared, scenarios[len(scenarios)-1], 7)
	}
	for _, scenario := range scenarios {
		shared.Reset()
		snapWarm, traceWarm := telemetryChaosRun(t, shared, scenario, 1337)
		snapCold, traceCold := telemetryChaosRun(t, telemetry.NewSet(), scenario, 1337)
		if snapWarm != snapCold {
			t.Errorf("chaos scenario %s: recycled-set metrics snapshot differs from fresh set:\n%s\nvs\n%s",
				scenario, snapWarm, snapCold)
		}
		if traceWarm != traceCold {
			t.Errorf("chaos scenario %s: recycled-set Chrome trace differs from fresh set", scenario)
		}
	}
}

// mustSnap round-trips a serialized snapshot back into the struct.
func mustSnap(t *testing.T, s string) telemetry.Snapshot {
	t.Helper()
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(s), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestChaosScenariosAreByteIdenticalAcrossRuns(t *testing.T) {
	for _, scenario := range shuttleScenarios() {
		first, second := chaosRun(t, scenario, 1337), chaosRun(t, scenario, 1337)
		if first != second {
			t.Errorf("chaos scenario %s differs between runs:\n%s\nvs\n%s", scenario, first, second)
		}
	}
}

// TestRandomFaultSchedulesNeverDeadlockDockFIFO is the liveness property
// behind every recovery policy: whatever fault schedule the scenario
// generator rolls, the shuttle must still complete every delivery — no
// schedule may wedge the dock FIFO (Shuttle reports "delivered N of M"
// when the event queue drains with carts still waiting).
func TestRandomFaultSchedulesNeverDeadlockDockFIFO(t *testing.T) {
	configs := []struct {
		name  string
		carts int
		docks int
		rail  track.RailMode
	}{
		{"default", 2, 4, track.SingleRail},
		{"contended-dual", 4, 2, track.DualRail},
	}
	for _, cfg := range configs {
		for _, scenario := range shuttleScenarios() {
			for seed := int64(1); seed <= 3; seed++ {
				opt := dhlsys.DefaultOptions()
				opt.NumCarts = cfg.carts
				opt.DockStations = cfg.docks
				opt.RailMode = cfg.rail
				opt.Seed = seed
				script, err := faults.ScenarioDims(scenario, seed, 90,
					faults.Dims{Carts: opt.NumCarts, Stations: opt.DockStations, DevicesPerCart: opt.Core.Cart.Config.NumSSDs})
				if err != nil {
					t.Fatal(err)
				}
				opt.Faults = &script
				s, err := dhlsys.New(opt)
				if err != nil {
					t.Fatal(err)
				}
				const want = 3
				res, err := s.Shuttle(dhlsys.ShuttleOptions{
					Dataset:        want * 256 * units.TB,
					ReadAtEndpoint: true,
				})
				if err != nil {
					t.Errorf("%s/%s seed %d: shuttle did not complete: %v",
						cfg.name, scenario, seed, err)
					continue
				}
				if res.Deliveries != want {
					t.Errorf("%s/%s seed %d: %d of %d deliveries",
						cfg.name, scenario, seed, res.Deliveries, want)
				}
			}
		}
	}
}

func TestDatamapPlacementIsByteIdenticalAcrossRuns(t *testing.T) {
	run := func() string {
		c := datamap.NewCatalog()
		for id := 0; id < 8; id++ {
			if err := c.AddCart(track.CartID(id), 16, 4*units.TB); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Place("ml-29pb", 200*units.TB); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Append("ml-29pb", 37*units.TB); err != nil {
			t.Fatal(err)
		}
		ext, epoch, err := c.Locate("ml-29pb")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("free=%v epoch=%d ext=%v", c.FreeBytes(), epoch, ext)
	}
	first, second := run(), run()
	if first != second {
		t.Errorf("datamap placement differs between runs:\n%s\nvs\n%s", first, second)
	}
}

// campusChaosRun executes the full acceptance-scale campus simulation —
// 1,000 carts over the 20-station default campus under the
// campus-partition chaos scenario — and renders every observable artefact
// (fault event log plus the complete Result report, per-edge stats
// included) as one string.
func campusChaosRun(t *testing.T, seed int64) string {
	t.Helper()
	c, err := tubenet.New(tubenet.Options{Carts: 1000, TripsPerCart: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	script, err := faults.ScenarioDims(faults.ScenarioCampusPartition, seed, 300, c.Dims())
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(c.Engine(), c, script)
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Arm(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TripsCompleted+res.TripsPending != 2000 {
		t.Fatalf("trip accounting leaked: %d done + %d pending != 2000",
			res.TripsCompleted, res.TripsPending)
	}
	return strings.Join(inj.LogLines(), "\n") + "\n" + res.String()
}

// TestCampusSimulationIsByteIdentical is the acceptance pin for the
// tubenet subsystem: a deterministic campus simulation of 1,000 carts
// across 20 stations with junction and tube-segment chaos must replay
// byte-identically from its seed.
func TestCampusSimulationIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance-scale campus run")
	}
	first, second := campusChaosRun(t, 3), campusChaosRun(t, 3)
	if first != second {
		t.Errorf("1000-cart campus chaos run differs between runs:\n%.2000s\nvs\n%.2000s", first, second)
	}
}
