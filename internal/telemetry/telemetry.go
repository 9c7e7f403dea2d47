// Package telemetry is the deterministic observability layer for the DHL
// stack: a metrics registry (counters, gauges, fixed-bucket histograms)
// and a span log, both keyed to *simulated* time, with exporters to Chrome
// trace_event JSON, Prometheus text exposition, and a plain-text summary
// table.
//
// Two properties distinguish it from a wall-clock metrics library:
//
//   - Determinism. Snapshots and exports are byte-identical across runs of
//     the same simulation: metric names are emitted in sorted order, spans
//     in sim-time order, and nothing ever reads the wall clock, the global
//     RNG, or the environment. The package is registered as a dhllint
//     model package, so those invariants are enforced statically.
//
//   - Zero cost when disabled. Every method is nil-safe: a nil *Registry
//     hands out nil *Counter/*Gauge/*Histogram handles, and operations on
//     nil handles (and a nil *SpanLog) are no-ops. An uninstrumented run
//     pays only nil-pointer checks; the overhead budget is recorded in
//     BENCH_kernel.json.
package telemetry

// Set bundles the two collectors a simulation carries: the metrics
// registry and the span log. A nil *Set (or nil fields) disables the
// corresponding telemetry with no further configuration.
type Set struct {
	Metrics *Registry
	Spans   *SpanLog
}

// NewSet returns a Set with both collectors enabled.
func NewSet() *Set {
	return &Set{Metrics: NewRegistry(), Spans: NewSpanLog()}
}

// Reset clears both collectors for reuse while keeping their backing
// storage — the pooling path for drivers that run many simulations
// against one long-lived Set (sweeps, benchmarks, servers): the next run
// records into recycled buffers instead of reallocating them. Safe on a
// nil set.
func (s *Set) Reset() {
	if s == nil {
		return
	}
	s.Metrics.Reset()
	s.Spans.Reset()
}

// MetricsOf returns the metrics registry of a possibly-nil set.
func (s *Set) MetricsOf() *Registry {
	if s == nil {
		return nil
	}
	return s.Metrics
}

// SpansOf returns the span log of a possibly-nil set.
func (s *Set) SpansOf() *SpanLog {
	if s == nil {
		return nil
	}
	return s.Spans
}
