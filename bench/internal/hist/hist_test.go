package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestQuantileWithinOnePercent checks the log-bucket histogram against the
// exact nearest-rank quantile on a wide, skewed latency sample.
func TestQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Hist
	xs := make([]float64, 0, 200000)
	for i := 0; i < cap(xs); i++ {
		v := uint64(math.Exp(rng.NormFloat64()*1.5 + 10)) // ~22 µs median, long tail
		h.Record(v)
		xs = append(xs, float64(v))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		exact := xs[NearestRank(q, len(xs))-1]
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.01 {
			t.Errorf("q=%v: histogram %v, exact %v (%.2f%% off)", q, got, exact, 100*rel)
		}
	}
	if h.N() != uint64(len(xs)) {
		t.Errorf("count %d, want %d", h.N(), len(xs))
	}
}

// TestSmallValuesExact checks that values below 128, such as queue depths,
// come back exactly, and that merging adds counts.
func TestSmallValuesExact(t *testing.T) {
	var a, b Hist
	for v := uint64(0); v < 100; v++ {
		a.Record(v)
		b.Record(v)
	}
	a.Merge(&b)
	if got := a.Quantile(0.5); got != 49 {
		t.Errorf("median of 0..99 twice = %v, want 49", got)
	}
	if a.N() != 200 {
		t.Errorf("merged count %d, want 200", a.N())
	}
	var empty Hist
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile %v, want 0", got)
	}
}
