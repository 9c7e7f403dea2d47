// Package dimflowbad is a lint fixture: dimension errors committed in raw
// float64, invisible to the type system and to unitsafety, caught by the
// dimensional-flow pass.
package dimflowbad

import "repro/internal/units"

// MixedAdd adds bytes to seconds through the float64 escape hatch.
func MixedAdd(b units.Bytes, t units.Seconds) float64 {
	return float64(b) + float64(t)
}

// WrongWrap computes a transfer time (B / (B/s) = s) but wraps it as
// power.
func WrongWrap(b units.Bytes, r units.BytesPerSecond) units.Watts {
	return units.Watts(float64(b) / float64(r))
}

// RatioOfBytes launders a dimensioned value into a dimensionless ratio
// through a local.
func RatioOfBytes(b units.Bytes) units.Ratio {
	raw := float64(b)
	return units.Ratio(raw)
}

// AccumulatorDrift tags values via unit accessors and trips on a compound
// assignment: kilojoules += hours.
func AccumulatorDrift(e units.Joules, t units.Seconds) float64 {
	total := e.KJ()
	total += t.Hours()
	return total
}

// The forms below each hide one bytes + seconds sum in a different
// statement position, so every position the walk visits has a finding.

func sink(float64) {}

// Branches puts the sum in an if-init, an else branch, a for-post
// statement and a range body.
func Branches(b units.Bytes, t units.Seconds, xs []int) {
	if x := float64(b) + float64(t); x > 0 {
		return
	} else {
		sink(float64(b) - float64(t))
	}
	for x := float64(b); x > 0; x -= float64(t) {
	}
	for range xs {
		sink(float64(b) + float64(t))
	}
}

// Switches puts the sum in a switch tag, a case expression, a type-switch
// clause and a select clause.
func Switches(b units.Bytes, t units.Seconds, v any, ch chan int) {
	switch float64(b) + float64(t) {
	}
	switch {
	case float64(b)+float64(t) > 0:
	}
	switch v.(type) {
	case int:
		sink(float64(b) + float64(t))
	}
	select {
	case <-ch:
		sink(float64(b) + float64(t))
	default:
	}
}

// Deferred puts the sum in a labeled statement, go and defer call
// arguments, and a function literal.
func Deferred(b units.Bytes, t units.Seconds) func() float64 {
loop:
	for {
		sink(float64(b) + float64(t))
		break loop
	}
	go sink(float64(b) + float64(t)) //dhllint:allow goroutine -- fixture: the goroutine only carries its argument
	defer sink(float64(b) + float64(t))
	return func() float64 {
		return float64(b) + float64(t)
	}
}
