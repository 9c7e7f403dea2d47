//go:build !race

package controlplane

// Dynamic pins for the server's allocation-free request loop, beside the
// codec pins in the repository root's hotpath_allocs_test.go: they reach
// unexported methods. Excluded under -race, whose runtime allocates.

import (
	"runtime"
	"testing"

	"repro/internal/dhlsys"
	"repro/internal/telemetry"
)

// mallocs counts the allocations of 100 runs of f after one warm-up call:
// their total, where testing.AllocsPerRun reports the integer mean and so
// misses growth amortised over many runs.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	// Each collection wakes the unique package's map cleanup, which
	// allocates on its own goroutine: collect now and let it run, so no
	// collection is pending during the measurement.
	runtime.GC()
	runtime.Gosched()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func newAllocServer(t *testing.T, tel *telemetry.Set) *Server {
	t.Helper()
	opt := dhlsys.DefaultOptions()
	opt.NumCarts = 1
	opt.Telemetry = tel
	sys, err := dhlsys.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWithOptions(sys, DefaultServerOptions())
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestHotPathAllocsRefreshCache pins refreshCache: with telemetry on, a
// warm refresh overwrites the cached stats and snapshot in place.
func TestHotPathAllocsRefreshCache(t *testing.T) {
	srv := newAllocServer(t, telemetry.NewSet())
	srv.refreshCache() // warm: size the cached snapshot's slices
	if n := mallocs(srv.refreshCache); n != 0 {
		t.Errorf("refreshCache: %d allocations over 100 runs, want 0", n)
	}
	if len(srv.cacheMetrics.Counters) == 0 {
		t.Fatal("cached snapshot is empty")
	}
}

// handleCycle returns a function that sends one open/write/read/close
// cycle through srv.handle, and the count of requests that failed.
func handleCycle(srv *Server) (func(), *int) {
	cycle := []Request{
		{Op: OpOpen}, {Op: OpWrite, Bytes: 1e6}, {Op: OpRead, Bytes: 1e6}, {Op: OpClose},
	}
	failed := 0
	return func() {
		for _, req := range cycle {
			if resp := srv.handle(req); !resp.OK {
				failed++
			}
		}
	}, &failed
}

// TestHotPathAllocsHandle pins one admitted simulation request through
// handle — validation, admission, the semaphore, Execute and the cache
// refresh — over an open/write/read/close cycle with telemetry off.
func TestHotPathAllocsHandle(t *testing.T) {
	srv := newAllocServer(t, nil)
	run, failed := handleCycle(srv)
	for i := 0; i < 4; i++ {
		run() // warm the event arena and request queues
	}
	if n := mallocs(run); n != 0 {
		t.Errorf("handle: %d allocations over 100 open/write/read/close cycles, want 0", n)
	}
	if *failed != 0 {
		t.Fatalf("%d requests failed", *failed)
	}
}

// TestHotPathAllocsHandleTelemetry is TestHotPathAllocsHandle with
// telemetry on, as dhlserve runs: once the server's span window is full,
// each span overwrites the oldest in place, so the cycle allocates
// nothing, spans and metrics included.
func TestHotPathAllocsHandleTelemetry(t *testing.T) {
	tel := telemetry.NewSet()
	srv := newAllocServer(t, tel)
	run, failed := handleCycle(srv)
	// Fill the span window; every cycle records spans, so it is full
	// within spanWindow cycles.
	for i := 0; tel.Spans.Dropped() == 0; i++ {
		if i == spanWindow {
			t.Fatalf("%d cycles dropped no span; the server's span log is not windowed", i)
		}
		run()
	}
	if n := mallocs(run); n != 0 {
		t.Errorf("handle: %d allocations over 100 open/write/read/close cycles, want 0", n)
	}
	if *failed != 0 {
		t.Fatalf("%d requests failed", *failed)
	}
	if got := tel.Spans.Len() - tel.Spans.NumInstants(); got != spanWindow {
		t.Errorf("server keeps %d spans, want the %d-span window", got, spanWindow)
	}
}
