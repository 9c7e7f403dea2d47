//go:build !race

package repro

// Dynamic verification of the //dhllint:hotpath annotations: every
// annotated entry point is driven through zeroAllocs and must make
// exactly zero steady-state allocations. The static allocflow
// pass and these tests pin each other — the analyzer proves no allocating
// construct is reachable, the run proves the exemptions (amortised
// appends, cold branches behind allows) really stay cold.
//
// Excluded under -race: the race runtime inserts its own allocations,
// which would fail the zero budgets without measuring the model.

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/dhlsys"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/tubenet"
	"repro/internal/units"
)

// zeroAllocs asserts f performs no allocation at all over 100 runs after
// one warm-up call. It counts the runs' mallocs in total, where
// testing.AllocsPerRun reports their integer mean and so misses growth
// amortised over many runs.
func zeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	// Each collection wakes the unique package's map cleanup, which
	// allocates on its own goroutine: collect now and let it run, so no
	// collection is pending during the measurement.
	runtime.GC()
	runtime.Gosched()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%s: %d allocations over 100 runs, want 0", name, n)
	}
}

// TestHotPathAllocsEventKernel pins the sim.Engine schedule/step cycle:
// At/After/MustAfter, the radix queue's link, pop, advance and remove,
// Cancel, EventTime and RunUntil, all against a warm arena.
func TestHotPathAllocsEventKernel(t *testing.T) {
	e := sim.New()
	nop := func() {}
	// Warm the arena past the burst size below.
	for i := 0; i < 64; i++ {
		e.MustAfter(units.Seconds(i), "warm", nop)
	}
	for e.Step() {
	}
	misses := 0
	zeroAllocs(t, "schedule/step", func() {
		base := e.Now()
		for i := 0; i < 32; i++ {
			e.MustAfter(units.Seconds(i+1), "tick", nop)
		}
		h := e.MustAfter(base+1000, "cancelled", nop)
		if _, ok := e.EventTime(h); !ok {
			misses++
		}
		if !e.Cancel(h) {
			misses++
		}
		for e.Step() {
		}
	})
	hs := make([]sim.Handle, 32)
	zeroAllocs(t, "schedule/cancel", func() {
		e.MustAfter(0.25, "tick", nop)
		for i := range hs {
			hs[i] = e.MustAfter(units.Seconds(i%7+1)*0.5, "cancelled", nop)
		}
		e.Step() // fires the tick, so the cancels below unlink from re-linked buckets
		for i := len(hs) - 1; i >= 0; i -= 2 {
			if !e.Cancel(hs[i]) {
				misses++
			}
		}
		for i := 0; i < len(hs); i += 2 {
			if !e.Cancel(hs[i]) {
				misses++
			}
		}
		for e.Step() {
		}
	})
	zeroAllocs(t, "schedule/RunUntil", func() {
		base := e.Now()
		for i := 0; i < 32; i++ {
			e.MustAfter(units.Seconds(i%9+1), "tick", nop)
		}
		if e.RunUntil(base+4.5) != 16 {
			misses++
		}
		e.MustAfter(0.25, "early", nop)
		if e.RunUntil(base+100) != 17 {
			misses++
		}
	})
	if misses != 0 {
		t.Fatalf("%d handle lookups or RunUntil counts missed", misses)
	}
}

// TestHotPathAllocsSpanLog pins the telemetry record path: Reset, Intern,
// InternArgs, RecordSpan with and without annotations, and RecordInstant
// against warm backing arrays.
func TestHotPathAllocsSpanLog(t *testing.T) {
	log := telemetry.NewSpanLog()
	rec := func() {
		log.Reset() // keeps backing arrays; IDs must be re-interned
		cart := log.Intern("cart-0")
		transit := log.Intern("transit")
		dir := log.InternArgs(telemetry.KV{Key: "dir", Value: "outbound"})
		stall := log.InternArgs(telemetry.KV{Key: "kind", Value: "stall"})
		log.RecordSpan(cart, transit, 0, 1, dir)
		log.RecordSpan(cart, transit, 1, 2, 0)
		log.RecordInstant(cart, transit, 2, stall)
	}
	zeroAllocs(t, "span log record", rec)
	if spans := log.Len() - log.NumInstants(); spans != 2 || log.NumInstants() != 1 {
		t.Fatalf("log holds %d spans, %d instants; want 2, 1", spans, log.NumInstants())
	}
}

// TestHotPathAllocsRegistry pins the metrics hot path: handle lookups by
// name (warm map hits), counter/gauge updates, and histogram observation.
func TestHotPathAllocsRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	hist := reg.Histogram("dhl_launch_seconds", []float64{1, 2, 5})
	v := 0.0
	zeroAllocs(t, "registry record", func() {
		v++
		reg.Counter("dhl_launches_total").Inc()
		reg.Counter("dhl_launch_energy_joules_total").Add(v)
		reg.Gauge("dhl_sim_time_seconds").Set(v)
		hist.Observe(v)
	})
	if reg.Counter("dhl_launches_total").Value() == 0 || reg.Snapshot().Histograms[0].Count == 0 {
		t.Fatal("registry recorded nothing")
	}
}

// TestHotPathAllocsStorage pins Device and Array I/O. Repair resets the
// allocation watermark each run so writes never hit the capacity error
// path.
func TestHotPathAllocsStorage(t *testing.T) {
	dev := &storage.Device{Spec: storage.SabrentRocket4Plus}
	failures := 0
	zeroAllocs(t, "device write", func() {
		if _, err := dev.Write(units.MB); err != nil {
			failures++
		}
		dev.Repair()
	})

	arr, err := storage.NewArray(storage.RAID0, storage.SabrentRocket4Plus, 4, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	zeroAllocs(t, "array write/read", func() {
		if _, err := arr.Write(units.MB); err != nil {
			failures++
		}
		if _, err := arr.Read(units.MB); err != nil {
			failures++
		}
		for _, d := range arr.Devices {
			d.Repair()
		}
	})
	if failures != 0 {
		t.Fatalf("%d I/O operations failed", failures)
	}
}

// launchCycle builds a warmed single-cart system and returns one full
// Open→Write→Read→Close cycle, each op drained before the next, as a
// closure, plus a pointer to the error slot the completion callbacks
// write.
func launchCycle(t *testing.T, set *telemetry.Set) (func(), *error) {
	t.Helper()
	opt := dhlsys.DefaultOptions()
	opt.NumCarts = 1
	opt.DockStations = 1
	opt.Telemetry = set
	sys, err := dhlsys.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	lastErr := new(error)
	done := func(err error) {
		if err != nil {
			*lastErr = err
		}
	}
	ioDone := func(_ units.Seconds, err error) { done(err) }
	cycle := func() {
		sys.Open(0, done)
		for sys.Engine.Step() {
		}
		sys.Write(0, 1e9, ioDone)
		for sys.Engine.Step() {
		}
		sys.Read(0, 1e9, ioDone)
		for sys.Engine.Step() {
		}
		sys.Close(0, done)
		for sys.Engine.Step() {
		}
	}
	// Warm: grow the event arena, the request queue, and (when enabled)
	// the telemetry structures to steady-state capacity.
	for i := 0; i < 4; i++ {
		cycle()
	}
	return cycle, lastErr
}

// TestHotPathAllocsLaunchLoop pins the full dhlsys scratch/launch loop —
// every pre-bound step, from both launch legs' try through the IO finish
// — with telemetry disabled: the steady-state cycle must not allocate at
// all.
func TestHotPathAllocsLaunchLoop(t *testing.T) {
	cycle, lastErr := launchCycle(t, nil)
	zeroAllocs(t, "launch loop (telemetry off)", cycle)
	if *lastErr != nil {
		t.Fatalf("cycle failed: %v", *lastErr)
	}
}

// TestHotPathAllocsLaunchLoopTelemetry pins the same loop with telemetry
// enabled, on a recycled Set — the pooled operating mode that
// BenchmarkShuttleTelemetryEnabled and the shuttle-bulk workload run.
// Metrics handles are warm map hits; a first system grows the span log
// past what the measured second system records (its warm-up and
// zeroAllocs' warm-up call included), and Reset keeps that capacity, so
// the record path appends within it throughout the measurement.
func TestHotPathAllocsLaunchLoopTelemetry(t *testing.T) {
	set := telemetry.NewSet()
	grow, _ := launchCycle(t, set)
	for i := 0; i < 128; i++ {
		grow()
	}
	set.Reset()
	cycle, lastErr := launchCycle(t, set)
	zeroAllocs(t, "launch loop (telemetry on)", cycle)
	if *lastErr != nil {
		t.Fatalf("cycle failed: %v", *lastErr)
	}
	if set.Spans.Len()-set.Spans.NumInstants() == 0 {
		t.Fatal("telemetry recorded no spans")
	}
}

// TestHotPathAllocsCampusDispatch pins the tubenet dispatch hot loop:
// steady-state depart/arrive/dock/dwell cycles over a warm campus, with
// every per-edge queue, occupant list, and line-hold slice already grown
// to its working footprint, must not allocate. No chaos and no epochs, so
// the only code driven is the //dhllint:hotpath-annotated path.
func TestHotPathAllocsCampusDispatch(t *testing.T) {
	c, err := tubenet.New(tubenet.Options{
		Carts: 128, TripsPerCart: 512, Seed: 5, EpochEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	eng := c.Engine()
	// Warm: drive well past the point where every queue has hit its peak
	// depth, so appends stay within capacity during the measurement.
	for i := 0; i < 1<<15; i++ {
		if !eng.Step() {
			t.Fatal("campus drained during warm-up")
		}
	}
	drained := false
	zeroAllocs(t, "campus dispatch", func() {
		for i := 0; i < 64; i++ {
			if !eng.Step() {
				drained = true
				return
			}
		}
	})
	if drained {
		t.Fatal("campus drained mid-measurement; grow TripsPerCart")
	}
}

// TestHotPathAllocsRouterRecompute pins tubenet.Router.Recompute: a warm
// router on the default campus, under non-zero entry queues, replanning
// alternately around one dead segment and one dead junction, must rebuild
// its tables without allocating, both when the usable edges change (the
// forced-hop table is rebuilt) and when they do not (it is reused).
func TestHotPathAllocsRouterRecompute(t *testing.T) {
	topo, err := tubenet.NewCampus(tubenet.DefaultCampusConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := topo.TransitTimes(tubenet.DefaultCartMass, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := tubenet.NewRouter(topo, base, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	liveness := func(deadEdge, deadNode int) tubenet.Liveness {
		live := tubenet.Liveness{NodeUp: make([]bool, topo.NumNodes()), EdgeUp: make([]bool, topo.NumEdges())}
		for i := range live.NodeUp {
			live.NodeUp[i] = i != deadNode
		}
		for i := range live.EdgeUp {
			live.EdgeUp[i] = i != deadEdge
		}
		return live
	}
	edgeDown, nodeDown := liveness(0, -1), liveness(-1, 0)
	queues := make([]int, topo.NumEdges())
	for i := range queues {
		queues[i] = i % 3
	}
	ctx := context.Background()
	var failed error
	zeroAllocs(t, "router recompute", func() {
		for _, live := range []tubenet.Liveness{edgeDown, edgeDown, nodeDown, nodeDown} {
			if err := r.Recompute(ctx, live, queues); err != nil {
				failed = err
			}
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
}

// TestHotPathAllocsWireCodec pins the canonical wire codec: encoding
// requests, op replies, a status reply and a metrics reply into a warm
// buffer, and decoding request frames and OK op replies, allocate
// nothing.
func TestHotPathAllocsWireCodec(t *testing.T) {
	reqs := []controlplane.Request{
		{Op: controlplane.OpOpen, Cart: 3},
		{Op: controlplane.OpWrite, Cart: 1, Bytes: 1e9},
		{Op: controlplane.OpRead, Bytes: 2.5e-7},
		{Op: controlplane.OpStatus},
	}
	opt := dhlsys.DefaultOptions()
	opt.Telemetry = telemetry.NewSet()
	sys, err := dhlsys.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.MetricsSnapshot()
	stats := controlplane.StatsJSON{Launches: 4, DockOps: 8, EnergyJ: 1.5e5, BytesRead: 1e9,
		DegradedLaunches: 1, StallTimeS: 2.5, FaultsInjected: 1, DowntimeS: 30, Availability: 0.99}
	replies := []controlplane.Response{
		{OK: true, SimTime: 1234.5, OpSeconds: 8.6},
		{OK: true, SimTime: 1e21, OpSeconds: 1e-7},
		{OK: false, Error: "controlplane: overloaded: queue-full", Code: controlplane.CodeServerBusy, RetryAfterS: 0.25},
		{OK: true, Stale: true, CacheAgeS: 0.5, SimTime: 42, Stats: &stats, Metrics: &snap},
		{OK: true, SimTime: 42, Text: telemetry.PrometheusText(snap)},
	}
	var buf []byte
	var failed error
	encode := func() {
		for _, req := range reqs {
			var err error
			if buf, err = controlplane.AppendRequest(buf[:0], req); err != nil {
				failed = err
			}
		}
		for i := range replies {
			var err error
			if buf, err = controlplane.AppendResponse(buf[:0], replies[i]); err != nil {
				failed = err
			}
		}
	}
	zeroAllocs(t, "encode", encode)

	var frames, lines [][]byte
	for _, req := range reqs {
		frame, err := controlplane.AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	for i := range replies[:2] { // OK replies carry no strings to allocate
		line, err := controlplane.AppendResponse(nil, replies[i])
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	mismatches := 0
	zeroAllocs(t, "decode", func() {
		for i, frame := range frames {
			req, err := controlplane.DecodeRequest(frame)
			if err != nil || req != reqs[i] {
				mismatches++
			}
		}
		for _, line := range lines {
			if resp, err := controlplane.DecodeResponse(line); err != nil || !resp.OK {
				mismatches++
			}
		}
	})
	if failed != nil || mismatches != 0 {
		t.Fatalf("codec failed: %v, %d mismatches", failed, mismatches)
	}
}
