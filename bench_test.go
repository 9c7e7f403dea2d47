package repro

// One benchmark per paper table and figure (plus kernel micro-benchmarks).
// Each bench regenerates the corresponding artefact end to end; run with
//
//	go test -bench=. -benchmem
//
// or scripts/bench.sh for the regression harness. EXPERIMENTS.md maps every
// benchmark to its paper artefact and records paper-versus-measured values.
//
// Conventions: every benchmark calls b.ReportAllocs(), and any setup that is
// not part of the measured artefact happens before b.ResetTimer().

import (
	"testing"

	"repro/internal/astra"
	"repro/internal/cart"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dhlsys"
	"repro/internal/faults"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/thermal"
	"repro/internal/tubenet"
	"repro/internal/units"
	"repro/internal/workload"
)

// BenchmarkFig2RouteEnergies regenerates Figure 2's route energy table
// (E1): the five A0–C route energies for the 29 PB transfer, derived from
// fat-tree routing.
func BenchmarkFig2RouteEnergies(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		routes := netmodel.ScenarioRoutes()
		var total units.Joules
		for _, rp := range routes {
			total += rp.Energy(core.PaperDataset)
		}
		if total <= 0 {
			b.Fatal("no energy computed")
		}
	}
}

// BenchmarkTableVCartMass regenerates Table V's cart masses (E3).
func BenchmarkTableVCartMass(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{16, 32, 64} {
			c, err := cart.New(cart.DefaultConfig().WithSSDs(n))
			if err != nil {
				b.Fatal(err)
			}
			if c.TotalMass <= 0 {
				b.Fatal("bad mass")
			}
		}
	}
}

// BenchmarkTableVIDesignSpace regenerates Table VI's single-launch block
// (E4): all 13 configurations' energy/time/bandwidth/power/efficiency.
func BenchmarkTableVIDesignSpace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := core.DesignSpace()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 13 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTableVI29PB regenerates Table VI's right block (E5): the 29 PB
// speedups and energy reductions against all five network scenarios.
func BenchmarkTableVI29PB(b *testing.B) {
	cfgs := []core.Config{
		core.DefaultConfig().With(100, 500, 32),
		core.DefaultConfig().With(200, 500, 32),
		core.DefaultConfig().With(300, 500, 32),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			tr, err := core.Transfer(cfg, core.PaperDataset)
			if err != nil {
				b.Fatal(err)
			}
			if cmp := core.CompareAll(tr); len(cmp) != 5 {
				b.Fatal("missing comparisons")
			}
		}
	}
}

// BenchmarkTableVIIIsoPower regenerates Table VII(a) (E6).
func BenchmarkTableVIIIsoPower(b *testing.B) {
	w := astra.DefaultDLRM()
	dhl := astra.DefaultDHL()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := astra.IsoPower(w, dhl)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTableVIIIsoTime regenerates Table VII(b) (E7).
func BenchmarkTableVIIIsoTime(b *testing.B) {
	w := astra.DefaultDLRM()
	dhl := astra.DefaultDHL()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := astra.IsoTime(w, dhl)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkFigure6 regenerates the full Figure 6 sweep (E8): five
// quantised DHL curves and five continuous network curves.
func BenchmarkFigure6(b *testing.B) {
	w := astra.DefaultDLRM()
	opt := astra.DefaultFigure6Options()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curves, err := astra.Figure6(w, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(curves) != 10 {
			b.Fatal("bad curve count")
		}
	}
}

// BenchmarkTableVIIICost regenerates Table VIII (E9): rail, LIM, and the
// 3×3 overall grid.
func BenchmarkTableVIIICost(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g := cost.PaperGrid(); len(g) != 9 {
			b.Fatal("bad grid")
		}
	}
}

// BenchmarkMinimumSpecCrossover regenerates §V-E's break-even analysis (E10).
func BenchmarkMinimumSpecCrossover(b *testing.B) {
	cfg := core.MinimumSpecConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.Crossover(cfg, netmodel.ScenarioA0)
		if err != nil {
			b.Fatal(err)
		}
		if r.BreakEvenDataset <= 0 {
			b.Fatal("bad break-even")
		}
	}
}

// BenchmarkMinimumSpecSearch sweeps the §V-E break-even analysis over a
// 75-point grid around the minimum-spec operating point.
func BenchmarkMinimumSpecSearch(b *testing.B) {
	base := core.MinimumSpecConfig()
	g := core.FineGrid{
		Speeds:  []units.MetresPerSecond{5, 10, 20, 40, 80},
		Lengths: []units.Metres{10, 20, 50, 100, 500},
		SSDs:    []int{1, 2, 4},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.MinimumSpecSearch(base, g, 360*units.GB, netmodel.ScenarioA0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Best == nil {
			b.Fatal("no winning spec")
		}
	}
}

// BenchmarkSystemSimulation runs the event-driven DHL system end to end
// (E12): a pipelined 2.56 PB transfer with endpoint reads, 4 carts, no
// fault script and no telemetry. It is the baseline of both overhead
// figures scripts/bench.sh records: the fault injector's
// (BenchmarkShuttleArmedEmptyScript) and telemetry's
// (BenchmarkShuttleTelemetryEnabled).
func BenchmarkSystemSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := dhlsys.DefaultOptions()
		opt.NumCarts = 4
		sys, err := dhlsys.New(opt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Shuttle(dhlsys.ShuttleOptions{
			Dataset:        10 * 256 * units.TB,
			ReadAtEndpoint: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Deliveries != 10 {
			b.Fatal("bad deliveries")
		}
	}
}

// BenchmarkShuttleArmedEmptyScript measures the injection machinery's own
// overhead: the injector armed with an explicit empty script, no fault ever
// firing. This is the number the <10 %-overhead target governs — the
// rough-day benchmark below costs more because it genuinely simulates more
// (stalls, reroutes, degraded launches), not because injection is slow.
func BenchmarkShuttleArmedEmptyScript(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := dhlsys.DefaultOptions()
		opt.NumCarts = 4
		opt.Faults = &faults.Script{Name: "empty"}
		sys, err := dhlsys.New(opt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Shuttle(dhlsys.ShuttleOptions{
			Dataset:        10 * 256 * units.TB,
			ReadAtEndpoint: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Deliveries != 10 {
			b.Fatal("bad deliveries")
		}
	}
}

// BenchmarkShuttleTelemetryEnabled measures full instrumentation cost in
// the intended operating mode: a long-lived Set reused across runs via
// Reset (sweeps, benchmarks, and servers all run many simulations against
// one collector). Per-run instrumentation — registry lookups, name
// interning, every span/counter/histogram record, and the final snapshot —
// is on the measured path; the collector's buffers are recycled, so the
// steady state allocates nothing for telemetry storage.
func BenchmarkShuttleTelemetryEnabled(b *testing.B) {
	b.ReportAllocs()
	set := telemetry.NewSet()
	for i := 0; i < b.N; i++ {
		set.Reset()
		opt := dhlsys.DefaultOptions()
		opt.NumCarts = 4
		opt.Telemetry = set
		sys, err := dhlsys.New(opt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Shuttle(dhlsys.ShuttleOptions{
			Dataset:        10 * 256 * units.TB,
			ReadAtEndpoint: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Deliveries != 10 {
			b.Fatal("bad deliveries")
		}
		if snap := sys.MetricsSnapshot(); len(snap.Counters) == 0 {
			b.Fatal("instrumented run produced no counters")
		}
	}
}

// BenchmarkShuttleTelemetryEnabledCold is the same workload with a fresh
// Set constructed per run — the worst case, paying collector construction
// and first-use buffer growth every iteration. The gap between this and
// the warm benchmark above is the cost Reset pooling recovers.
func BenchmarkShuttleTelemetryEnabledCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := dhlsys.DefaultOptions()
		opt.NumCarts = 4
		opt.Telemetry = telemetry.NewSet()
		sys, err := dhlsys.New(opt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Shuttle(dhlsys.ShuttleOptions{
			Dataset:        10 * 256 * units.TB,
			ReadAtEndpoint: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Deliveries != 10 {
			b.Fatal("bad deliveries")
		}
		if snap := sys.MetricsSnapshot(); len(snap.Counters) == 0 {
			b.Fatal("instrumented run produced no counters")
		}
	}
}

// BenchmarkChaosShuttle measures the fault-injection engine's end-to-end
// overhead: the BenchmarkSystemSimulation workload under the rough-day
// scenario (all five fault kinds active). Script generation is part of the
// measured path — a chaos run pays for it exactly once.
func BenchmarkChaosShuttle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt := dhlsys.DefaultOptions()
		opt.NumCarts = 4
		opt.Seed = 1337
		script, err := faults.ScenarioDims(faults.ScenarioRoughDay, 1337, 120, opt.FaultDims())
		if err != nil {
			b.Fatal(err)
		}
		opt.Faults = &script
		sys, err := dhlsys.New(opt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Shuttle(dhlsys.ShuttleOptions{
			Dataset:        10 * 256 * units.TB,
			ReadAtEndpoint: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Deliveries != 10 {
			b.Fatal("bad deliveries")
		}
	}
}

// BenchmarkSimulateIteration runs the event-driven DLRM iteration with the
// paper's 1e7 downscale (part of E6/E7 methodology).
func BenchmarkSimulateIteration(b *testing.B) {
	w := astra.DefaultDLRM()
	dhl := astra.DefaultDHL()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.SimulateIteration(dhl, astra.PaperDownscale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventKernel measures the discrete-event engine's throughput.
func BenchmarkEventKernel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < 1000 {
				eng.MustAfter(1, "tick", tick)
			}
		}
		eng.MustAfter(1, "tick", tick)
		if _, err := eng.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventKernelSteadyState measures the engine at a fixed queue
// depth: 64 concurrent self-rescheduling timers firing 16384 events per
// iteration. Timer j first fires at j+1 and then every 64 s, so the 64
// pending events always sit at 64 distinct times and no two fire
// together. This is the arena's steady state — after warm-up every
// schedule reuses a slot the free-list just recycled, so the arena never
// grows and the per-event cost is the radix queue's re-linking plus slot
// bookkeeping.
func BenchmarkEventKernelSteadyState(b *testing.B) {
	const depth = 64
	const events = 16384
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n <= events-depth {
				eng.MustAfter(depth, "tick", tick)
			}
		}
		for j := 0; j < depth; j++ {
			eng.MustAfter(units.Seconds(1+j), "tick", tick)
		}
		if _, err := eng.Run(0); err != nil {
			b.Fatal(err)
		}
		if p := eng.Processed(); p != events {
			b.Fatalf("processed %d events, want %d", p, events)
		}
	}
}

// BenchmarkStorageArray measures striped array transfers.
func BenchmarkStorageArray(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := storage.NewArray(storage.RAID0, storage.SabrentRocket4Plus, 32, 6, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Write(256 * units.TB); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Read(256 * units.TB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGenerators measures trace generation for the physics
// (§II-D.1) and backup (§II-D.2) settings.
func BenchmarkWorkloadGenerators(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.DefaultPhysicsBurst().Generate(); err != nil {
			b.Fatal(err)
		}
		if _, err := workload.DefaultBulkBackup().Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationDockTime sweeps the §V-A dominant overhead: docking.
func BenchmarkAblationDockTime(b *testing.B) {
	times := []units.Seconds{0, 1, 2, 3, 4, 5}
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := core.DockTimeSensitivity(cfg, times)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("bad sweep")
		}
	}
}

// BenchmarkAblationAcceleration sweeps the peak-power/trip-time trade-off.
func BenchmarkAblationAcceleration(b *testing.B) {
	accels := []units.MetresPerSecond2{250, 500, 1000, 2000}
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AccelerationTradeoff(cfg, accels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRegenBraking sweeps the §VI 16–70 % regeneration range.
func BenchmarkAblationRegenBraking(b *testing.B) {
	regens := []float64{0, 0.16, 0.3, 0.5, 0.7}
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RegenerativeBrakingSavings(cfg, regens); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDensityScaling projects the §II-A SSD-density argument.
func BenchmarkAblationDensityScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := core.DefaultDensityScaling()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatal("bad projection")
		}
	}
}

// BenchmarkStabilisationLoop runs the §III-B.2 active-stabilisation control
// simulation (1 s at 10 kHz integration).
func BenchmarkStabilisationLoop(b *testing.B) {
	plant, ctrl, opt := control.DefaultPlant(), control.DefaultController(), control.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := control.Simulate(plant, ctrl, opt)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Settled {
			b.Fatal("loop did not settle")
		}
	}
}

// BenchmarkThermalAnalysis evaluates the §VI heat-sink budget for a cart.
func BenchmarkThermalAnalysis(b *testing.B) {
	c := thermal.CartThermals{Sink: thermal.ConductiveFins, NumSSDs: 32, Ambient: thermal.DefaultAmbient}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermal.Analyze(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampusSimulation runs the acceptance-scale tubenet campus: the
// 1,000-cart fleet over the 20-station default campus under the
// campus-partition chaos scenario — the run whose dhlsim report
// cmd/dhlsim's TestMetricsGoldens pins in testdata/campus-1000.golden.
func BenchmarkCampusSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := tubenet.New(tubenet.Options{Carts: 1000, TripsPerCart: 2, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		script, err := faults.ScenarioDims(faults.ScenarioCampusPartition, 3, 300, c.Dims())
		if err != nil {
			b.Fatal(err)
		}
		inj, err := faults.NewInjector(c.Engine(), c, script)
		if err != nil {
			b.Fatal(err)
		}
		if err := inj.Arm(); err != nil {
			b.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.TripsCompleted+res.TripsPending != 2000 {
			b.Fatal("trip accounting leaked")
		}
	}
}

// BenchmarkCampusDispatchSteadyState isolates the per-event cost of the
// tubenet dispatch hot loop (depart/arrive/dock/dwell), steady-state, no
// chaos, no epochs — the path the zero-alloc budget governs.
func BenchmarkCampusDispatchSteadyState(b *testing.B) {
	// Each campus instance yields ~400k dispatch events; when one drains,
	// a fresh warmed instance replaces it with the timer stopped.
	warm := func() *sim.Engine {
		c, err := tubenet.New(tubenet.Options{
			Carts: 256, TripsPerCart: 256, Seed: 1, EpochEvery: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Start(); err != nil {
			b.Fatal(err)
		}
		eng := c.Engine()
		for i := 0; i < 1<<14; i++ {
			if !eng.Step() {
				b.Fatal("campus drained during warm-up")
			}
		}
		return eng
	}
	eng := warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !eng.Step() {
			b.StopTimer()
			eng = warm()
			b.StartTimer()
		}
	}
}
