//go:build !race

package repro

// Dynamic verification of the //dhllint:hotpath annotations: every
// annotated entry point is driven through testing.AllocsPerRun and must
// measure exactly zero steady-state allocations. The static allocflow
// pass and these tests pin each other — the analyzer proves no allocating
// construct is reachable, the run proves the exemptions (amortised
// appends, cold branches behind allows) really stay cold.
//
// Excluded under -race: the race runtime inserts its own allocations,
// which would fail the zero budgets without measuring the model.

import (
	"context"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/dhlsys"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/tubenet"
	"repro/internal/units"
)

// zeroAllocs asserts f performs no allocations per run after its warm-up
// call (AllocsPerRun runs f once before measuring).
func zeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s: %.1f allocs/run, want 0", name, n)
	}
}

// TestHotPathAllocsEventKernel pins the sim.Engine schedule/step cycle:
// At/After/MustAfter, the heap push/pop/sift family, Cancel, and
// EventTime, all against a warm arena.
func TestHotPathAllocsEventKernel(t *testing.T) {
	e := sim.New()
	nop := func() {}
	// Warm the arena and heap past the burst size below.
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
	if misses != 0 {
		t.Fatalf("%d handle lookups missed", misses)
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
	if log.NumSpans() != 2 || log.NumInstants() != 1 {
		t.Fatalf("log holds %d spans, %d instants; want 2, 1", log.NumSpans(), log.NumInstants())
	}
}

// TestHotPathAllocsSpanLogGrow pins the pre-sizing path: after Grow, a
// cold log records within capacity with no Reset needed.
func TestHotPathAllocsSpanLogGrow(t *testing.T) {
	log := telemetry.NewSpanLog()
	cart := log.Intern("cart-0")
	name := log.Intern("transit")
	dir := log.InternArgs(telemetry.KV{Key: "dir", Value: "outbound"})
	log.Grow(256, 256)
	at := units.Seconds(0)
	zeroAllocs(t, "record after Grow", func() {
		at++
		log.RecordSpan(cart, name, at, at+1, dir)
		log.RecordInstant(cart, name, at, 0)
	})
	if log.NumSpans() == 0 || log.NumInstants() == 0 {
		t.Fatal("grown log recorded nothing")
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
		reg.Gauge("dhl_queue_depth").Add(-1)
		hist.Observe(v)
	})
	if reg.Counter("dhl_launches_total").Value() == 0 || hist.Count() == 0 {
		t.Fatal("registry recorded nothing")
	}
}

// TestHotPathAllocsStorage pins Device and Array I/O. Repair resets the
// allocation watermark each run so writes never hit the capacity error
// path.
func TestHotPathAllocsStorage(t *testing.T) {
	dev := storage.NewDevice(storage.SabrentRocket4Plus)
	failures := 0
	zeroAllocs(t, "device write/read", func() {
		if _, err := dev.Write(units.MB); err != nil {
			failures++
		}
		if _, err := dev.Read(units.MB); err != nil {
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
// Open→drain→Close→drain cycle as a closure, plus a pointer to the error
// slot the completion callbacks write.
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
	cycle := func() {
		sys.Open(0, done)
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
// every step function from tryOpen through ioFinish — with telemetry
// disabled: the steady-state cycle must not allocate at all.
func TestHotPathAllocsLaunchLoop(t *testing.T) {
	cycle, lastErr := launchCycle(t, nil)
	zeroAllocs(t, "launch loop (telemetry off)", cycle)
	if *lastErr != nil {
		t.Fatalf("cycle failed: %v", *lastErr)
	}
}

// TestHotPathAllocsLaunchLoopTelemetry pins the same loop with telemetry
// enabled. Metrics handles are warm map hits; the span log is pre-sized
// with Grow so the record path appends within capacity throughout the
// measurement.
func TestHotPathAllocsLaunchLoopTelemetry(t *testing.T) {
	set := telemetry.NewSet()
	cycle, lastErr := launchCycle(t, set)
	// ~12 spans per cycle; reserve for the measured runs plus
	// AllocsPerRun's warm-up call with generous headroom.
	set.Spans.Grow(4096, 512)
	zeroAllocs(t, "launch loop (telemetry on)", cycle)
	if *lastErr != nil {
		t.Fatalf("cycle failed: %v", *lastErr)
	}
	if set.Spans.NumSpans() == 0 {
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
// router on the default campus, replanning around one dead segment under
// non-zero entry queues, must rebuild its tables without allocating.
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
	live := tubenet.Liveness{NodeUp: make([]bool, topo.NumNodes()), EdgeUp: make([]bool, topo.NumEdges())}
	for i := range live.NodeUp {
		live.NodeUp[i] = true
	}
	for i := range live.EdgeUp {
		live.EdgeUp[i] = true
	}
	live.EdgeUp[0] = false
	queues := make([]int, topo.NumEdges())
	for i := range queues {
		queues[i] = i % 3
	}
	ctx := context.Background()
	var failed error
	zeroAllocs(t, "router recompute", func() {
		if err := r.Recompute(ctx, live, queues); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
}

// TestHotPathAllocsWireCodec pins the canonical wire codec: encoding
// requests and op replies into a warm buffer, and decoding request frames
// and OK op replies, allocate nothing.
func TestHotPathAllocsWireCodec(t *testing.T) {
	reqs := []controlplane.Request{
		{Op: controlplane.OpOpen, Cart: 3},
		{Op: controlplane.OpWrite, Cart: 1, Bytes: 1e9},
		{Op: controlplane.OpRead, Bytes: 2.5e-7},
		{Op: controlplane.OpStatus},
	}
	replies := []controlplane.Response{
		{OK: true, SimTime: 1234.5, OpSeconds: 8.6},
		{OK: true, SimTime: 1e21, OpSeconds: 1e-7},
		{OK: false, Error: "controlplane: overloaded: queue-full", Code: controlplane.CodeServerBusy, RetryAfterS: 0.25},
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
