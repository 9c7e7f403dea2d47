//go:build !race

package controlplane

// Dynamic pins for the server's allocation-free request loop, beside the
// codec pins in the repository root's hotpath_allocs_test.go: they reach
// unexported methods. Excluded under -race, whose runtime allocates.

import (
	"testing"

	"repro/internal/dhlsys"
	"repro/internal/telemetry"
)

func newAllocServer(t *testing.T, tel *telemetry.Set) *Server {
	t.Helper()
	opt := dhlsys.DefaultOptions()
	opt.NumCarts = 1
	opt.Telemetry = tel
	sys, err := dhlsys.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys)
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
	if n := testing.AllocsPerRun(100, srv.refreshCache); n != 0 {
		t.Errorf("refreshCache: %.1f allocs/run, want 0", n)
	}
	if len(srv.cacheMetrics.Counters) == 0 {
		t.Fatal("cached snapshot is empty")
	}
}

// TestHotPathAllocsHandle pins one admitted simulation request through
// handle — validation, admission, the semaphore, Execute and the cache
// refresh — over an open/write/read/close cycle with telemetry off, whose
// span log would otherwise grow.
func TestHotPathAllocsHandle(t *testing.T) {
	srv := newAllocServer(t, nil)
	cycle := []Request{
		{Op: OpOpen}, {Op: OpWrite, Bytes: 1e6}, {Op: OpRead, Bytes: 1e6}, {Op: OpClose},
	}
	failed := 0
	run := func() {
		for _, req := range cycle {
			if resp := srv.handle(1, req); !resp.OK {
				failed++
			}
		}
	}
	for i := 0; i < 4; i++ {
		run() // warm the event arena and request queues
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("handle: %.1f allocs per open/write/read/close cycle, want 0", n)
	}
	if failed != 0 {
		t.Fatalf("%d requests failed", failed)
	}
}
