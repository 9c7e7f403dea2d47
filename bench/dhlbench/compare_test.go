package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJudge pins each verdict on synthetic samples of a lower-is-better
// metric with a 10 % bound, paired by index.
func TestJudge(t *testing.T) {
	spec := metricSpec{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 100, 75, 125, 100, 72, 128, 100, 100}
	cases := []struct {
		name     string
		old, cur []float64
		want     string
	}{
		{"same", base, base, verdictUnchanged},
		{"faster", base, scale(base, 0.9), verdictImproved},
		{"slower past bound", base, scale(base, 1.2), verdictRegressed},
		{"slower within bound", base, scale(base, 1.05), verdictUnchanged},
		{"too noisy", base, noisy, verdictUnresolved},
	}
	for _, tc := range cases {
		c := comparison{old: tc.old, cur: tc.cur}
		for i := range tc.old {
			c.pairs = append(c.pairs, [2]float64{tc.old[i], tc.cur[i]})
		}
		judge(spec, &c)
		if c.verdict != tc.want {
			t.Errorf("%s: verdict %s, want %s (change %.3f, wins %d)", tc.name, c.verdict, tc.want, c.change, c.wins)
		}
	}
	// Higher-is-better metrics invert the direction.
	rps := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	c := comparison{old: base, cur: scale(base, 0.8)}
	judge(rps, &c)
	if c.verdict != verdictRegressed {
		t.Errorf("throughput down 20%%: verdict %s, want %s", c.verdict, verdictRegressed)
	}
}

// TestCompareCmd round-trips result files through compare: a regression
// fails the command, identical sets pass, and sets measured for different
// run lengths are refused.
func TestCompareCmd(t *testing.T) {
	dir := t.TempDir()
	write := func(sub string, seed int64, p50, seconds float64) {
		res := result{Workload: "serve-loopback", Seed: seed, Seconds: seconds, Correct: true, Attempted: 1, Metrics: map[string]stat{}}
		for _, s := range endToEnd {
			res.Metrics[s.Name] = stat{Value: 100, Unit: s.Unit}
		}
		res.Metrics["p50_us"] = stat{Value: p50, Unit: "us"}
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeResult(filepath.Join(dir, sub), res); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		write("old", seed, 40, runSeconds)
		write("same", seed, 40, runSeconds)
		write("slow", seed, 60, runSeconds)
		write("short", seed, 40, runSeconds/2)
	}
	var out bytes.Buffer
	if code := compareCmd([]string{filepath.Join(dir, "old"), filepath.Join(dir, "same")}, &out); code != 0 {
		t.Errorf("identical sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareCmd([]string{filepath.Join(dir, "old"), filepath.Join(dir, "slow")}, &out); code != 1 {
		t.Errorf("slower set: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("slower set not reported as regressed:\n%s", out.String())
	}
	out.Reset()
	if code := compareCmd([]string{filepath.Join(dir, "old"), filepath.Join(dir, "short")}, &out); code != 1 {
		t.Errorf("shorter runs: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "not compared") {
		t.Errorf("shorter runs not refused:\n%s", out.String())
	}
}
