package multistop

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// pinnedMoveTraceDigest is the sha256 of the Chrome trace tracedMoveRun
// exports. Every move span carries two annotations built from the stop
// names (from, to), so the digest pins the annotation record path as well
// as the span layout.
const pinnedMoveTraceDigest = "6c9bdc6a0c1dd076cc71ba9f8f84c25399873a4b24c9a769832ed4f7193a739f"

// tracedMoveRun drives a small instrumented line: three carts, moves that
// run concurrently, moves that queue on an overlapping span, a blockade,
// and repeated hops over the same stop pairs.
func tracedMoveRun(t *testing.T) []byte {
	t.Helper()
	l, err := New(core.DefaultConfig(), fourStops())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Place(1, 0); err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewSet()
	l.SetTelemetry(set) // backfills cart 1's track
	if err := l.Place(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Place(3, 3); err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	// Cart 1 hops out and back; its return queues on the blockade below.
	l.Move(1, 1, func(err error) {
		check(err)
		l.Move(1, 0, check)
	})
	// Cart 2 shuttles rack-B → rack-C → rack-B → rack-C, repeating one
	// stop pair's annotations.
	l.Move(2, 3, func(err error) {
		check(err)
		l.Move(2, 2, func(err error) {
			check(err)
			l.Move(2, 3, check)
		})
	})
	l.Move(3, 1, check) // overlaps cart 2's span: queues
	if err := l.Block(0, 1); err != nil {
		t.Fatal(err)
	}
	l.Engine.MustAfter(20, "unblock", func() { check(l.Unblock(0, 1)) })
	if _, err := l.Run(); err != nil {
		t.Fatal(err)
	}
	b, err := telemetry.ChromeTrace(set.Spans)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMoveTraceMatchesPinnedDigest pins the exported trace of an
// instrumented line to a digest recorded before the move spans' from/to
// annotations moved to interned annotation sets.
func TestMoveTraceMatchesPinnedDigest(t *testing.T) {
	b := tracedMoveRun(t)
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != pinnedMoveTraceDigest {
		t.Errorf("move trace digest = %s, want %s\n%s", got, pinnedMoveTraceDigest, b)
	}
}
