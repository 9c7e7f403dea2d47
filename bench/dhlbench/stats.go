package main

import (
	"sort"

	"repro/bench/internal/hist"
)

// quantileOf is the exact nearest-rank q-quantile of xs (which it sorts).
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[hist.NearestRank(q, len(xs))-1]
}

// summary reduces a sample to the reported value plus its count and
// quartiles, the form every timing takes in a result file.
func summary(xs []float64, value float64, unit string) stat {
	s := append([]float64(nil), xs...)
	return stat{Value: value, Unit: unit, N: len(s), Q1: quantileOf(s, 0.25), Q3: quantileOf(s, 0.75)}
}

// medianStat is summary with the median as the value.
func medianStat(xs []float64, unit string) stat {
	return summary(xs, quantileOf(append([]float64(nil), xs...), 0.5), unit)
}

// stat is one reported metric. Timings carry their sample count (N, the
// windows or set-ups behind the value) and quartiles; exact counts and
// derived ratios leave them zero.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	// Samples counts the reps or requests behind a per-window value.
	Samples int `json:"samples,omitempty"`
}
