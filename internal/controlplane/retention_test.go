//go:build !race

package controlplane

// Excluded under -race, whose runtime keeps shadow memory per heap object
// and so distorts the live-heap figures this test compares.

import (
	"runtime"
	"testing"

	"repro/internal/telemetry"
)

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServerHeapPlateaus drives 200k requests through a telemetry-on
// server's handle and requires its live heap to stop growing once the
// span window is full: the heap after 200k requests is within 0.5 MB of
// the heap after 40k, and the window has dropped exactly the records
// recorded beyond it.
func TestServerHeapPlateaus(t *testing.T) {
	const (
		perCycle   = 4 // open, write, read, close
		plateauAt  = 40_000 / perCycle
		cycles     = 200_000 / perCycle
		plateauTol = 512 << 10
	)
	tel := telemetry.NewSet()
	srv := newAllocServer(t, tel)
	run, failed := handleCycle(srv)
	if tel.Spans.Len() != 0 {
		t.Fatalf("a new server's log holds %d records", tel.Spans.Len())
	}
	run()
	spansPerCycle := tel.Spans.Len() // every cycle of one idle cart records the same spans
	var early uint64
	for i := 1; i < cycles; i++ {
		if i == plateauAt {
			early = liveHeap()
		}
		run()
	}
	late := liveHeap()
	if *failed != 0 {
		t.Fatalf("%d requests failed", *failed)
	}
	t.Logf("live heap %.2f MB at 40k requests, %.2f MB at 200k; %d spans per cycle",
		float64(early)/1e6, float64(late)/1e6, spansPerCycle)
	if late > early+plateauTol {
		t.Errorf("live heap grew %.2f MB from 40k to 200k requests, want under 0.5 MB",
			float64(late-early)/1e6)
	}
	if n := tel.Spans.NumInstants(); n != 0 {
		t.Fatalf("cycles recorded %d instants; the dropped count below assumes none", n)
	}
	recorded := uint64(cycles * spansPerCycle)
	if got, want := tel.Spans.Dropped(), recorded-spanWindow; got != want {
		t.Errorf("dropped = %d, want %d recorded - %d window = %d", got, recorded, spanWindow, want)
	}
	var exported float64
	for _, c := range tel.Metrics.Snapshot().Counters {
		if c.Name == "dhl_telemetry_dropped_records_total" {
			exported = c.Value
		}
	}
	if exported != float64(tel.Spans.Dropped()) {
		t.Errorf("dhl_telemetry_dropped_records_total = %v, want the log's %d", exported, tel.Spans.Dropped())
	}
}
