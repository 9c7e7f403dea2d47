package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/units"
)

// TestMain lets the test binary stand in for dhlbench as the twin process
// the workloads start.
func TestMain(m *testing.M) {
	if os.Getenv(twinEnv) == "1" {
		os.Exit(twinMain())
	}
	os.Exit(m.Run())
}

// tinySize runs every workload's code path in a fraction of a second.
var tinySize = sizes{
	carts:        20,
	trips:        3,
	dataset:      4 * 256 * units.TB,
	serveBudget:  500,
	kernelEvents: 10000,
}

// TestWorkloadsRepeat runs each workload's end-to-end pass twice at a tiny
// size: both runs must be correct, agree on the digest, and report every
// end-to-end metric with a positive value.
func TestWorkloadsRepeat(t *testing.T) {
	ws := workloadsAt(tinySize)
	for _, w := range ws {
		w := w
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{seed: 5, seconds: 0.2, out: t.TempDir()}
			a := runWorkload(w, ws, o)
			b := runWorkload(w, ws, o)
			for _, res := range []result{a, b} {
				if !res.Correct {
					t.Fatalf("run not correct: %d of %d failed: %v", res.Failed, res.Attempted, res.Errors)
				}
				for _, s := range endToEnd {
					if v := res.Metrics[s.Name]; !(v.Value > 0) || v.Unit != s.Unit {
						t.Errorf("%s = %v %q, want a positive value in %q", s.Name, v.Value, v.Unit, s.Unit)
					}
				}
			}
			if a.Digest == "" || a.Digest != b.Digest {
				t.Errorf("digests %q and %q differ", a.Digest, b.Digest)
			}
		})
	}
}

// TestTracedPass runs each workload's traced pass at a tiny size: every
// per-layer metric is reported and the Chrome trace is well formed, with
// timestamps in order as cmd/dhltracecheck requires.
func TestTracedPass(t *testing.T) {
	ws := workloadsAt(tinySize)
	for _, w := range ws {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res := runWorkload(w, ws, runOpts{seed: 5, seconds: 0.2, trace: true, out: t.TempDir()})
			if !res.Correct {
				t.Fatalf("traced run not correct: %d of %d failed: %v", res.Failed, res.Attempted, res.Errors)
			}
			for _, s := range perLayer {
				if _, ok := res.Metrics[s.Name]; !ok {
					t.Errorf("per-layer metric %s missing", s.Name)
				}
			}
			b, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var f struct {
				TraceEvents []struct {
					Ph  string   `json:"ph"`
					Ts  float64  `json:"ts"`
					Dur *float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &f); err != nil {
				t.Fatal(err)
			}
			last, spans := 0.0, 0
			for _, e := range f.TraceEvents {
				if e.Ph == "M" {
					continue
				}
				spans++
				if e.Ts < last || e.Dur == nil || *e.Dur < 0 {
					t.Fatalf("event at ts %v out of order or without a duration", e.Ts)
				}
				last = e.Ts
			}
			if spans == 0 {
				t.Error("trace has no spans")
			}
		})
	}
}

// TestPairsCalibrate checks the calibration arithmetic: each pair's
// repository value is scaled by the twin's reference over the twin's value
// in that pair, so a host twice as slow as the reference leaves the
// calibrated value where the reference says; the metric is the median of
// the scaled pairs, and each side's raw median is kept.
func TestPairsCalibrate(t *testing.T) {
	p := newPairs(map[string]float64{"p50_us": 100, "ops_per_s": 10})
	for _, v := range [][2]float64{{200, 200}, {330, 300}, {180, 200}} {
		p.add("p50_us", "us", v[0], v[1])
		p.add("ops_per_s", "1/s", 1e6/v[0], 1e6/v[1])
		p.samples++
	}
	cal, raw, tw := p.metrics()
	want := map[string][3]float64{ // calibrated, raw, twin
		"p50_us":    {100, 200, 200},
		"ops_per_s": {10, 5000, 5000},
	}
	for name, v := range want {
		if c, r, w := cal[name].Value, raw[name].Value, tw[name].Value; math.Abs(c-v[0]) > 1e-9 || math.Abs(r-v[1]) > 1e-9 || math.Abs(w-v[2]) > 1e-9 {
			t.Errorf("%s: calibrated %v raw %v twin %v, want %v", name, c, r, w, v)
		}
	}
	if c := cal["p50_us"]; c.N != 3 || c.Samples != 3 || math.Abs(c.Q1-90) > 1e-9 || math.Abs(c.Q3-110) > 1e-9 {
		t.Errorf("p50_us stat %+v, want n=3 samples=3 q1=90 q3=110", c)
	}
}

// TestVerifyCatchesWrongReply hands verify two kept replies, one as the
// server would send it and one whose op_seconds is off: only the second
// becomes a failure.
func TestVerifyCatchesWrongReply(t *testing.T) {
	plan := makePlan(5, 0)
	ref, err := newShadow(false)
	if err != nil {
		t.Fatal(err)
	}
	var replies []reply
	for i := 0; i < 2; i++ {
		d, _, err := shadowOp(ref, plan[i])
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, reply{i, d, float64(ref.Engine.Now())})
	}
	replies[1].opSeconds *= 1.001
	sh, err := newShadow(false)
	if err != nil {
		t.Fatal(err)
	}
	c := &conn{shadow: sh, plan: plan, ok: len(replies), replies: replies}
	c.verify()
	if c.ok != 1 || len(c.errs) != 1 {
		t.Errorf("ok %d, errors %q; want 1 ok and 1 error", c.ok, c.errs)
	}
}

// TestGoldenDigests checks that the default seed reproduces its golden at
// full size — the check a speed-only change must pass unchanged.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one full-size rep per workload")
	}
	for _, w := range workloadsAt(fullSize) {
		want, ok := goldens[goldenKey(w.name, 3)]
		if !ok {
			t.Errorf("%s: no golden for the default seed", w.name)
			continue
		}
		got, err := workloadDigest(w, 3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if got != want {
			t.Errorf("%s: digest %s, golden %s", w.name, got, want)
		}
	}
}
