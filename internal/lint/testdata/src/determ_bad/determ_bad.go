// Package determbad is a lint fixture: model code reaching ambient
// nondeterminism. Every call below is a determinism true positive.
package determbad

import (
	"math/rand"
	"os"
	"time"
)

// Jitter stamps a sample with the wall clock and a global-source draw.
func Jitter() (time.Time, float64) {
	now := time.Now()
	return now, rand.Float64()
}

// Elapsed uses the wall clock through time.Since.
func Elapsed(start time.Time) time.Duration {
	return time.Since(start)
}

// Pick draws from the global source.
func Pick(n int) int {
	return rand.Intn(n)
}

// Tuning reads the environment.
func Tuning() string {
	return os.Getenv("DHL_TUNING")
}

// bootTime stamps package initialisation with the wall clock: outside any
// function body, so the call graph never sees it.
var bootTime = time.Now()
