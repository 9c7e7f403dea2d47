// Package unitsafetybad is a lint fixture: dimension errors that Go's
// type checker accepts but the unitsafety rule rejects.
package unitsafetybad

import "repro/internal/units"

// BytesAsSeconds converts bytes straight to seconds: type-checks, always
// dimensionally wrong (needs a rate).
func BytesAsSeconds(b units.Bytes) units.Seconds {
	return units.Seconds(b)
}

// SquaredTime multiplies two non-constant durations: seconds², not
// seconds.
func SquaredTime(a, b units.Seconds) units.Seconds {
	return a * b
}

// PowerFromRate relabels a line rate as power.
func PowerFromRate(r units.BitsPerSecond) units.Watts {
	return units.Watts(r)
}

// linkBytes is a package-level quantity that is not a constant.
var linkBytes = units.Bytes(8e9)

// linkTime relabels it as seconds outside any function body.
var linkTime = units.Seconds(linkBytes)

// ByDeadline keys a table by a cross-unit conversion: the conversion sits
// in a composite-literal key, which a value-only walk skips.
func ByDeadline(b units.Bytes) map[units.Seconds]string {
	return map[units.Seconds]string{units.Seconds(b): "deadline"}
}
