package telemetry

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dhl_launches_total")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}
	if r.Counter("dhl_launches_total") != c {
		t.Error("second lookup returned a different counter")
	}
	g := r.Gauge("dhl_carts_in_transit")
	g.Set(4)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge = %v, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dhl_io_seconds", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Errorf("sum = %v, want 556.5", h.Sum())
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(s.Histograms))
	}
	hp := s.Histograms[0]
	// Cumulative: ≤1 → {0.5, 1}, ≤10 → +{5}, ≤100 → +{50}; 500 overflows.
	wantCum := []uint64{2, 3, 4}
	for i, b := range hp.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket le=%v count = %d, want %d", b.UpperBound, b.Count, wantCum[i])
		}
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	r := NewRegistry()
	for _, bounds := range [][]float64{nil, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v: expected panic", bounds)
				}
			}()
			r.Histogram("bad", bounds)
		}()
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", nil) // nil registry: bounds never validated
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must read as zero")
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
	var set *Set
	if set.MetricsOf() != nil || set.SpansOf() != nil {
		t.Error("nil set accessors must return nil")
	}
}

func TestSnapshotSortedRegardlessOfRegistrationOrder(t *testing.T) {
	build := func(names []string) string {
		r := NewRegistry()
		for _, n := range names {
			r.Counter(n).Inc()
		}
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a := build([]string{"zeta", "alpha", "mid"})
	b := build([]string{"mid", "zeta", "alpha"})
	if a != b {
		t.Errorf("snapshot depends on registration order:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `"alpha"`) || strings.Index(a, "alpha") > strings.Index(a, "zeta") {
		t.Errorf("snapshot not name-sorted: %s", a)
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("dhl_launches_total").Add(7)
	r.Gauge("dhl-sim time").Set(1.5)
	h := r.Histogram("dhl_io_seconds", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(20)
	text := PrometheusText(r.Snapshot())
	for _, want := range []string{
		"# TYPE dhl_launches_total counter\ndhl_launches_total 7\n",
		"# TYPE dhl_sim_time gauge\ndhl_sim_time 1.5\n", // sanitised name
		`dhl_io_seconds_bucket{le="1"} 1`,
		`dhl_io_seconds_bucket{le="10"} 1`,
		`dhl_io_seconds_bucket{le="+Inf"} 2`,
		"dhl_io_seconds_sum 20.5",
		"dhl_io_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestSummaryTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("launches").Add(3)
	r.Histogram("io_s", []float64{1}).Observe(0.25)
	out := SummaryTable(r.Snapshot())
	for _, want := range []string{"counters:", "launches", "histograms:", "io_s"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if SummaryTable(Snapshot{}) != "" {
		t.Error("empty snapshot should render empty summary")
	}
}

// TestSnapshotIntoReusesAndMatches: SnapshotInto writes the same snapshot
// Snapshot builds, whatever the destination held before, reuses a warm
// destination's slices, and Clone shares none of them.
func TestSnapshotIntoReusesAndMatches(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("g").Set(-1)
	h := r.Histogram("h_seconds", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)

	dirty := Snapshot{
		Counters:   make([]CounterPoint, 7),
		Histograms: []HistogramPoint{{Name: "stale", Buckets: make([]BucketPoint, 1)}},
	}
	for _, dst := range []*Snapshot{{}, &dirty} {
		r.SnapshotInto(dst)
		if want := r.Snapshot(); !reflect.DeepEqual(*dst, want) {
			t.Errorf("SnapshotInto = %+v, want %+v", *dst, want)
		}
	}
	counters, buckets := &dirty.Counters[0], &dirty.Histograms[0].Buckets[0]
	c := dirty.Clone()
	r.Counter("b_total").Inc()
	h.Observe(0.7)
	r.SnapshotInto(&dirty)
	if &dirty.Counters[0] != counters || &dirty.Histograms[0].Buckets[0] != buckets {
		t.Error("a warm SnapshotInto reallocated its slices")
	}
	if c.Counters[0].Value != 2 || c.Histograms[0].Count != 2 || c.Histograms[0].Buckets[0].Count != 1 {
		t.Errorf("clone changed with its source: %+v", c)
	}

	var nilReg *Registry
	nilReg.SnapshotInto(&dirty)
	if !reflect.DeepEqual(dirty, Snapshot{}) {
		t.Errorf("nil registry snapshot = %+v, want zero", dirty)
	}
}
