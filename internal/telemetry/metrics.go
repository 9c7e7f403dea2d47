package telemetry

import (
	"fmt"
	"slices"
	"sort"
)

// Counter is a monotonically non-decreasing metric. The zero value is
// ready; all methods are no-ops on a nil receiver.
type Counter struct {
	v float64
}

// Inc adds one.
//
//dhllint:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta; negative deltas are ignored
// (counters are monotone by contract).
//
//dhllint:hotpath
func (c *Counter) Add(delta float64) {
	if c == nil || delta < 0 {
		return
	}
	c.v += delta
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a metric that can go up and down. The zero value is ready; all
// methods are no-ops on a nil receiver.
type Gauge struct {
	v float64
}

// Set stores v.
//
//dhllint:hotpath
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add adjusts the gauge by delta (either sign).
//
//dhllint:hotpath
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	g.v += delta
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed buckets. Bounds are upper
// bounds in ascending order; an implicit +Inf bucket catches the
// overflow (its cumulative count equals Count). The zero value is unusable
// — obtain histograms from a Registry, which fixes the bucket layout at
// creation. All methods are no-ops on a nil receiver.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the +Inf overflow
	sum    float64
	count  uint64
}

// Observe records one value. The bucket walk is a branch-predictable
// linear scan — bucket layouts here are ≤ a dozen bounds, where the scan
// beats binary search and the record path stays free of calls, locks,
// and allocations.
//
//dhllint:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && h.bounds[i] < v {
		i++ // settles at the first bound ≥ v, or the +Inf overflow
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Registry owns a flat namespace of metrics. Handles are created on first
// use and live for the registry's lifetime; snapshots list metrics in
// sorted name order, so serialisations are byte-deterministic regardless
// of registration order. A nil *Registry hands out nil handles, making
// the whole instrumentation path a no-op.
//
// Each section is a pair of parallel slices kept sorted by name plus a
// handle map. The sorted slices make snapshots order-deterministic with
// no per-snapshot sort and no map iteration; the map makes repeat
// registrations — every run against a pooled registry re-requests the
// same ~30 names — a single lookup.
//
// The registry is not safe for concurrent use — it belongs to a
// single-threaded simulation, matching the rest of the model stack.
type Registry struct {
	counterNames []string
	counterVals  []*Counter
	gaugeNames   []string
	gaugeVals    []*Gauge
	histNames    []string
	histVals     []*Histogram

	// Hit-path indexes: repeat registrations (every run against a pooled
	// registry re-requests the same ~30 names) resolve with one map
	// lookup instead of a binary search over the shared "dhl_" prefixes.
	// The maps hold handles, not positions, so the sorted-insert shifts
	// below never invalidate them.
	counterIdx map[string]*Counter
	gaugeIdx   map[string]*Gauge
	histIdx    map[string]*Histogram

	// Chunked backing store for counter handles: registration costs one
	// allocation per chunk, not per metric. Handles point into a chunk,
	// which stays alive through them; the chunk slice only ever appends
	// within capacity before being replaced, so the pointers are stable.
	counterSlab []Counter
}

// registryHint sizes the name lists and handle slab for a typical
// instrumented simulation (the full system registers ~30 counters).
const registryHint = 32

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counterNames: make([]string, 0, registryHint),
		counterVals:  make([]*Counter, 0, registryHint),
		counterIdx:   make(map[string]*Counter, registryHint),
	}
}

// Reset zeroes every metric while keeping the namespace and the handles —
// the pooling path for drivers that run many simulations against one
// long-lived registry. Handles obtained before the Reset stay valid (the
// next run's Counter/Gauge/Histogram calls return the same ones) and read
// as freshly created. Safe on a nil receiver.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for _, c := range r.counterVals {
		c.v = 0
	}
	for _, g := range r.gaugeVals {
		g.v = 0
	}
	for _, h := range r.histVals {
		clear(h.counts)
		h.sum = 0
		h.count = 0
	}
}

// findName locates name in the sorted list, returning its index and
// whether it is present (the index is the insertion point when absent).
func findName(names []string, name string) (int, bool) {
	i := sort.SearchStrings(names, name)
	return i, i < len(names) && names[i] == name
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op handle) on a nil registry.
//
//dhllint:hotpath
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.counterIdx[name]; ok {
		return c
	}
	i, _ := findName(r.counterNames, name)
	if len(r.counterSlab) == cap(r.counterSlab) {
		//dhllint:allow allocflow -- miss path: registration allocates once per chunk, hits are map lookups
		r.counterSlab = make([]Counter, 0, registryHint)
	}
	r.counterSlab = append(r.counterSlab, Counter{})
	c := &r.counterSlab[len(r.counterSlab)-1]
	r.counterNames = insertAt(r.counterNames, i, name)
	r.counterVals = insertAt(r.counterVals, i, c)
	//dhllint:allow allocflow -- miss path: one index insert per new name, hits never reach here
	r.counterIdx[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil (a
// no-op handle) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if g, ok := r.gaugeIdx[name]; ok {
		return g
	}
	i, _ := findName(r.gaugeNames, name)
	g := &Gauge{}
	r.gaugeNames = insertAt(r.gaugeNames, i, name)
	r.gaugeVals = insertAt(r.gaugeVals, i, g)
	if r.gaugeIdx == nil {
		r.gaugeIdx = make(map[string]*Gauge, 8)
	}
	r.gaugeIdx[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use. Bounds must be ascending and
// non-empty; a later call with different bounds panics (one layout per
// name, fixed for the run). Returns nil (a no-op handle) on a nil
// registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.histIdx[name]; ok {
		return h
	}
	i, _ := findName(r.histNames, name)
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket bound", name))
	}
	for j := 1; j < len(bounds); j++ {
		if bounds[j] <= bounds[j-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending at index %d", name, j))
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.histNames = insertAt(r.histNames, i, name)
	r.histVals = insertAt(r.histVals, i, h)
	if r.histIdx == nil {
		r.histIdx = make(map[string]*Histogram, 8)
	}
	r.histIdx[name] = h
	return h
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BucketPoint is one cumulative histogram bucket: the count of
// observations ≤ UpperBound. The implicit +Inf bucket is not listed — its
// cumulative count is the histogram's Count.
type BucketPoint struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistogramPoint is one histogram in a snapshot.
type HistogramPoint struct {
	Name    string        `json:"name"`
	Buckets []BucketPoint `json:"buckets"`
	Sum     float64       `json:"sum"`
	Count   uint64        `json:"count"`
}

// Snapshot is a point-in-time copy of a registry, with every section in
// sorted name order. Marshalling a snapshot (JSON or any exporter in this
// package) is byte-deterministic for a given simulation history.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters,omitempty"`
	Gauges     []GaugePoint     `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state. A nil registry yields
// the zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	r.SnapshotInto(&s)
	return s
}

// SnapshotInto captures the registry's current state into dst, reusing
// dst's slices where they are long enough, so refreshing a warm snapshot
// does not allocate. The slices of anything copied from dst earlier are
// overwritten too; Clone first to keep a copy. A nil registry yields the
// zero snapshot.
//
//dhllint:hotpath
func (r *Registry) SnapshotInto(dst *Snapshot) {
	if r == nil {
		*dst = Snapshot{}
		return
	}
	dst.Counters = resize(dst.Counters, len(r.counterNames))
	for i, name := range r.counterNames {
		dst.Counters[i] = CounterPoint{Name: name, Value: r.counterVals[i].v}
	}
	dst.Gauges = resize(dst.Gauges, len(r.gaugeNames))
	for i, name := range r.gaugeNames {
		dst.Gauges[i] = GaugePoint{Name: name, Value: r.gaugeVals[i].v}
	}
	dst.Histograms = resize(dst.Histograms, len(r.histNames))
	for i, name := range r.histNames {
		h := r.histVals[i]
		hp := &dst.Histograms[i]
		hp.Name, hp.Sum, hp.Count = name, h.sum, h.count
		hp.Buckets = resize(hp.Buckets, len(h.bounds))
		cum := uint64(0)
		for j, b := range h.bounds {
			cum += h.counts[j]
			hp.Buckets[j] = BucketPoint{UpperBound: b, Count: cum}
		}
	}
}

// Clone returns a deep copy of s that shares no slice with it.
func (s Snapshot) Clone() Snapshot {
	c := Snapshot{
		Counters:   slices.Clone(s.Counters),
		Gauges:     slices.Clone(s.Gauges),
		Histograms: slices.Clone(s.Histograms),
	}
	for i := range c.Histograms {
		c.Histograms[i].Buckets = slices.Clone(c.Histograms[i].Buckets)
	}
	return c
}

// resize returns s with length n, reusing its backing array when the
// capacity allows. A nil s stays nil at n = 0.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		//dhllint:allow allocflow -- growth on a cold destination; a warm one has the registry's size already
		return make([]T, n)
	}
	return s[:n]
}

// insertAt inserts v at index i, shifting the tail up. The registry's
// lists are tiny and preallocated, so the shift is a short memmove.
func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
