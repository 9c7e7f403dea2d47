package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	twin "repro/bench/_twin"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// sizes fixes how much work each workload does. fullSize is the benchmark;
// tests run the same code at a tiny size.
type sizes struct {
	carts, trips int
	dataset      units.Bytes
	// serveBudget is the requests a serve run sends to each side per
	// second of -seconds. It is a count, not a rate the server is held to:
	// the run takes as long as the servers need for them (see perConn).
	serveBudget  float64
	kernelEvents int // events per run of the kernel probe
}

// At full size a serve run sends 8,000 requests per second of -seconds to
// the repository's server and as many to the twin's. A 2-core Xeon VM
// answers about 60,000 a second while its host is quiet and 30,000 while
// the host is busy, so there the run, with its set-ups and untimed checks,
// takes between 0.4 and 0.8 × -seconds.
var fullSize = sizes{
	carts:        1000,
	trips:        50,
	dataset:      2900 * units.PB,
	serveBudget:  8000,
	kernelEvents: 1_000_000,
}

// workload is one named set of inputs. A sim workload's unit of work is
// one complete simulation (a rep); a serve workload's is one request.
type workload struct {
	name, why string
	// campus and shuttle mark which simulator a sim workload drives.
	campus, shuttle bool
	// sim builds a runner for one seed; simOff, for shuttle-bulk, the same
	// rep without telemetry, the baseline of telemetry.overhead_pct.
	sim, simOff func(seed int64) simRunner
	serve       bool
	sz          sizes
}

func workloadsAt(sz sizes) []workload {
	shuttle := func(instrumented bool) func(int64) simRunner {
		return func(seed int64) simRunner {
			r := &shuttleRunner{seed: seed, dataset: sz.dataset}
			if instrumented {
				r.set = telemetry.NewSet()
			}
			return r
		}
	}
	ws := []workload{
		{
			name:   "campus-chaos",
			why:    "1,000 carts x 50 trips under campus-partition chaos with 30 s route epochs: the router does about half the work, dispatch the rest",
			campus: true,
			sim: func(seed int64) simRunner {
				return campusRunner{seed: seed, chaos: true, carts: sz.carts, trips: sz.trips}
			},
		},
		{
			name:   "campus-calm",
			why:    "the same fleet with no chaos and no epochs, so the router runs once: dispatch and the event kernel alone, the control for campus-chaos",
			campus: true,
			sim: func(seed int64) simRunner {
				return campusRunner{seed: seed, chaos: false, carts: sz.carts, trips: sz.trips}
			},
		},
		{
			name:    "shuttle-bulk",
			why:     "2.9 EB bulk transfer with endpoint reads, 4 carts, dual rail, rough-day chaos and warm telemetry: the only load on dhlsys, track, storage and telemetry",
			shuttle: true,
			sim:     shuttle(true),
			simOff:  shuttle(false),
		},
		{
			name:  "serve-loopback",
			why:   "dhlserve over loopback TCP, 2 closed-loop connections with no think time: decode, admission, simulation, snapshot and encode at saturation",
			serve: true,
		},
	}
	for i := range ws {
		ws[i].sz = sz
	}
	return ws
}

// job is what the twin needs to run w at seed.
func (w workload) job(seed int64) twin.Job {
	return twin.Job{Workload: w.name, Seed: seed, Carts: w.sz.carts, Trips: w.sz.trips, Dataset: float64(w.sz.dataset)}
}

// golden is w's golden digest at seed, or "" when there is none. Goldens
// are recorded at full size only.
func (w workload) golden(seed int64) string {
	if w.sz != fullSize {
		return ""
	}
	return goldens[goldenKey(w.name, seed)]
}

// workloadNamed finds a workload in ws.
func workloadNamed(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// heapReps are extra reps measured for heap after the timed ones.
const heapReps = 3

// tally counts attempted and failed operations and checks that every rep
// reproduces one digest: the golden for the seed when there is one, else
// the first digest seen.
type tally struct {
	attempted, failed int
	errs              []string
	want              string
}

func (t *tally) note(msg string) {
	if len(t.errs) < 8 {
		t.errs = append(t.errs, msg)
	}
}

func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	t.note(err.Error())
}

// rep counts one rep and reports whether it succeeded with the expected
// digest.
func (t *tally) rep(out repOut, err error) bool {
	if err == nil && t.want != "" && out.digest != t.want {
		err = fmt.Errorf("digest %s, want %s", out.digest, t.want)
	}
	if err != nil {
		t.fail(err)
		return false
	}
	t.attempted++
	if t.want == "" {
		t.want = out.digest
	}
	return true
}

// requests counts a batch of requests of which ok were answered correctly.
func (t *tally) requests(attempted, ok int, errs []string) {
	t.attempted += attempted
	t.failed += attempted - ok
	for _, e := range errs {
		t.note(e)
	}
}

// absorb adds another tally's counts to t.
func (t *tally) absorb(o *tally) {
	t.requests(o.attempted, o.attempted-o.failed, o.errs)
}

// liveHeapMB forces a collection and returns the live heap in MB. Callers
// keep the state they measure reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// Every unit of timed work runs twice: on the repository's code and on
// the twin, its frozen copy (see package twin), one right after the
// other. The order alternates, so neither side always runs first. A run
// is split into runBlocks blocks, so setup_s samples the whole run rather
// than its first second. Each block opens with set-ups of both sides,
// repeated until they have taken setupShare of the block's share of the
// run (at least one pair, at most maxBlockSetups): a campus set-up takes
// a third of a second, a serve set-up about a millisecond.
const (
	runBlocks      = 8
	minBlockRounds = 1
	setupShare     = 0.2
	maxBlockSetups = 8
)

// blockSetups reports whether a block whose set-ups have taken spent so
// far, in its j-th pair, should run another pair.
func blockSetups(j int, spent, seconds float64) bool {
	return j == 0 || (j < maxBlockSetups && spent < setupShare*seconds/runBlocks)
}

const (
	sideRepo = iota
	sideTwin
)

// order is the order the two sides run in round k.
func order(k int) [2]int {
	if k%2 == 0 {
		return [2]int{sideRepo, sideTwin}
	}
	return [2]int{sideTwin, sideRepo}
}

// pairs collects one (repository, twin) pair of values per round for each
// end-to-end timing.
type pairs struct {
	ref     map[string]float64
	units   map[string]string
	vals    map[string][][2]float64
	samples int
}

func newPairs(ref map[string]float64) *pairs {
	return &pairs{ref: ref, units: map[string]string{}, vals: map[string][][2]float64{}}
}

func (p *pairs) add(name, unit string, repo, tw float64) {
	p.units[name] = unit
	p.vals[name] = append(p.vals[name], [2]float64{repo, tw})
}

// metrics reports every timing calibrated: the median over its pairs of
// the repository's value times the twin's reference value (twinRef) over
// the twin's value in the same pair. A slower host moves both values of a
// pair alike and cancels; a faster repository moves only its own. raw and
// tw are the medians of each side's own values.
func (p *pairs) metrics() (cal, raw, tw map[string]stat) {
	cal, raw, tw = map[string]stat{}, map[string]stat{}, map[string]stat{}
	for name, vs := range p.vals {
		unit := p.units[name]
		c, r, t := make([]float64, len(vs)), make([]float64, len(vs)), make([]float64, len(vs))
		for i, v := range vs {
			c[i], r[i], t[i] = v[0]*p.ref[name]/v[1], v[0], v[1]
		}
		cal[name], raw[name], tw[name] = medianStat(c, unit), medianStat(r, unit), medianStat(t, unit)
		if name != "setup_s" {
			for _, m := range []map[string]stat{cal, raw, tw} {
				s := m[name]
				s.Samples = p.samples
				m[name] = s
			}
		}
	}
	return cal, raw, tw
}

// runSim is the untraced run of a sim workload. A block's set-up, timed
// as a whole, builds a fresh runner on each side and runs one cold rep on
// it; the block then runs rounds of one rep per side until its share of
// the run has passed (at least minBlockRounds rounds). Both sides' reps
// must reproduce the same digest.
func runSim(w workload, seed int64, seconds float64, tl *tally) (*pairs, map[string]stat, map[string]float64) {
	p := newPairs(twinRef[w.name])
	tw, err := startTwin(w.job(seed))
	if err != nil {
		tl.fail(err)
		return p, nil, nil
	}
	defer tw.closeInto(tl)
	var r simRunner
	var model map[string]float64
	start := time.Now()
	for b := 0; b < runBlocks; b++ {
		end := start.Add(time.Duration(float64(b+1) / runBlocks * seconds * float64(time.Second)))
		for j, spent := 0, 0.0; blockSetups(j, spent, seconds); j++ {
			var setup [2]float64
			ok := true
			for _, side := range order(b + j) {
				if side == sideTwin {
					out, wall, err := tw.rep(twin.OpSetup)
					ok = tl.rep(out, err) && ok
					setup[side] = wall
					continue
				}
				t0 := time.Now()
				r = w.sim(seed)
				out, err := r.rep(nil)
				setup[side] = time.Since(t0).Seconds()
				ok = tl.rep(out, err) && ok
			}
			spent += setup[sideRepo] + setup[sideTwin]
			if ok {
				p.add("setup_s", "s", setup[sideRepo], setup[sideTwin])
			}
		}

		for k := 0; k < minBlockRounds || time.Now().Before(end); k++ {
			var wall [2]float64 // µs
			var events [2]int
			ok := true
			for _, side := range order(b + k) {
				if side == sideTwin {
					out, s, err := tw.rep(twin.OpRep)
					ok = tl.rep(out, err) && ok
					wall[side], events[side] = s*1e6, out.events
					continue
				}
				t0 := time.Now()
				out, err := r.rep(nil)
				wall[side] = float64(time.Since(t0).Nanoseconds()) / 1e3
				ok = tl.rep(out, err) && ok
				events[side], model = out.events, out.model
			}
			if !ok {
				continue
			}
			p.add("host_ns_per_event", "ns", wall[sideRepo]*1e3/float64(events[sideRepo]), wall[sideTwin]*1e3/float64(events[sideTwin]))
			p.add("ops_per_s", "1/s", 1e6/wall[sideRepo], 1e6/wall[sideTwin])
			p.add("p50_us", "us", wall[sideRepo], wall[sideTwin])
			p.samples++
		}
	}

	// The heap is read after the timed reps, so forcing collections does
	// not change their timing: each heap rep is measured with its
	// simulation still reachable.
	var heap []float64
	for i := 0; i < heapReps; i++ {
		out, err := r.rep(nil)
		if tl.rep(out, err) {
			heap = append(heap, liveHeapMB())
		}
		runtime.KeepAlive(out.state)
	}
	return p, map[string]stat{"heap_peak_mb": summary(heap, maxOf(heap), "MB")}, model
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// serveBatch is the requests each connection sends in one round.
const serveBatch = 500

// runServe is the untraced run of a serve workload: runBlocks blocks of a
// fixed request count on one server per side, sent in rounds of
// serveBatch requests per connection to each side. The first set-up of a
// side builds the server it measures; each later one builds a spare
// server, torn down untimed, so the server measured keeps its whole
// history. Every reply on either side must be OK and match its shadow.
func runServe(w workload, seed int64, seconds float64, tl *tally) (*pairs, map[string]stat, map[string]float64) {
	digest, model, err := planDigest(seed)
	tl.rep(repOut{digest: digest}, err)
	p := newPairs(twinRef[w.name])
	tw, err := startTwin(w.job(seed))
	if err != nil {
		tl.fail(err)
		return p, nil, model
	}
	defer tw.closeInto(tl)
	var s *server
	// setup is one set-up on side, in seconds; NaN when it failed.
	setup := func(side int) float64 {
		if side == sideTwin {
			r, err := tw.do(twin.OpSetup, 0)
			if err != nil {
				tl.fail(err)
				return math.NaN()
			}
			tl.requests(r.Attempted, r.OK, r.Errs)
			if len(r.Errs) > 0 {
				return math.NaN()
			}
			return float64(r.WallNs) / 1e9
		}
		t0 := time.Now()
		spare, err := setupServe(seed, false)
		d := time.Since(t0).Seconds()
		if err != nil {
			tl.fail(err)
			return math.NaN()
		}
		if s == nil {
			s = spare
			return d
		}
		spare.report(tl)
		if err := spare.close(); err != nil {
			tl.fail(err)
		}
		return d
	}
	n := perConn(seconds, w.sz.serveBudget, runBlocks)
	for b := 0; b < runBlocks; b++ {
		for j, spent := 0, 0.0; blockSetups(j, spent, seconds); j++ {
			var d [2]float64
			for _, side := range order(b + j) {
				d[side] = setup(side)
			}
			if math.IsNaN(d[sideRepo]) || math.IsNaN(d[sideTwin]) {
				continue
			}
			spent += d[sideRepo] + d[sideTwin]
			p.add("setup_s", "s", d[sideRepo], d[sideTwin])
		}
		if s == nil {
			return p, nil, model
		}
		for k, left := 0, n; left > 0; k, left = k+1, left-serveBatch {
			m := min(left, serveBatch)
			var got [2]twin.Reply
			ok := true
			for _, side := range order(b + k) {
				if side == sideRepo {
					s.resetLatency()
					out := s.window(m)
					got[side] = twin.Reply{WallNs: out.wall.Nanoseconds(), Events: out.events, Attempted: out.attempted, OK: out.ok, P50Ns: s.latency().Quantile(0.5)}
					continue
				}
				r, err := tw.do(twin.OpBatch, m)
				if err != nil {
					tl.fail(err)
					ok = false
					continue
				}
				tl.requests(r.Attempted, r.OK, r.Errs)
				got[side] = r
			}
			g, t := got[sideRepo], got[sideTwin]
			if !ok || g.Events == 0 || t.Events == 0 {
				continue
			}
			p.add("host_ns_per_event", "ns", float64(g.WallNs)/float64(g.Events), float64(t.WallNs)/float64(t.Events))
			p.add("ops_per_s", "1/s", float64(g.OK)*1e9/float64(g.WallNs), float64(t.OK)*1e9/float64(t.WallNs))
			p.add("p50_us", "us", g.P50Ns/1e3, t.P50Ns/1e3)
			p.samples += g.Attempted
		}
	}
	heap := liveHeapMB()
	s.report(tl)
	if err := s.close(); err != nil {
		tl.fail(err)
	}
	return p, map[string]stat{"heap_peak_mb": {Value: heap, Unit: "MB", N: 1}}, model
}
