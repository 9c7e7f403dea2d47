package telemetry

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/units"
)

// windowRec is one record of a windowed-log test: a span, or an instant
// when inst is set.
type windowRec struct {
	inst        bool
	track, name string
	start, end  units.Seconds
	args        []KV
}

// randomRecs draws n records over a few tracks, names and annotation
// sets, so the first appearance of each track moves with the window.
func randomRecs(rng *rand.Rand, n int) []windowRec {
	tracks := []string{"cart-0", "cart-1", "cart-2", "faults"}
	names := []string{"transit", "dock", "stall"}
	sets := [][]KV{nil, {{Key: "dir", Value: "outbound"}}, {{Key: "site", Value: "library"}, {Key: "degraded", Value: "true"}}}
	out := make([]windowRec, n)
	for i := range out {
		start := units.Seconds(rng.Intn(40))
		out[i] = windowRec{
			inst:  rng.Intn(3) == 0,
			track: tracks[rng.Intn(len(tracks))], name: names[rng.Intn(len(names))],
			start: start, end: start + units.Seconds(rng.Intn(5)),
			args: sets[rng.Intn(len(sets))],
		}
	}
	return out
}

func record(l *SpanLog, recs []windowRec) {
	for _, r := range recs {
		if r.inst {
			mark(l, r.track, r.name, r.start, r.args...)
		} else {
			l.Span(r.track, r.name, r.start, r.end, r.args...)
		}
	}
}

// windowOf returns the records a window of n keeps of recs: the last n
// spans and the last n instants, still interleaved in recording order,
// and how many it drops.
func windowOf(recs []windowRec, n int) ([]windowRec, uint64) {
	var spans, insts int
	for _, r := range recs {
		if r.inst {
			insts++
		} else {
			spans++
		}
	}
	skipSpans, skipInsts := max(spans-n, 0), max(insts-n, 0)
	var kept []windowRec
	for _, r := range recs {
		switch {
		case r.inst && skipInsts > 0:
			skipInsts--
		case !r.inst && skipSpans > 0:
			skipSpans--
		default:
			kept = append(kept, r)
		}
	}
	return kept, uint64(len(recs) - len(kept))
}

// traceEvents returns a Chrome trace's events, without its otherData.
func traceEvents(t *testing.T, l *SpanLog) []byte {
	t.Helper()
	b, err := ChromeTrace(l)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f.TraceEvents
}

// checkWindow requires l to read exactly as an unbounded log holding
// only want, and to have dropped the given count.
func checkWindow(t *testing.T, label string, l *SpanLog, want []windowRec, dropped uint64) {
	t.Helper()
	ref := NewSpanLog()
	record(ref, want)
	if !reflect.DeepEqual(l.Spans(), ref.Spans()) {
		t.Errorf("%s: spans = %+v, want %+v", label, l.Spans(), ref.Spans())
	}
	if !reflect.DeepEqual(instants(l), instants(ref)) {
		t.Errorf("%s: instants = %+v, want %+v", label, instants(l), instants(ref))
	}
	if !reflect.DeepEqual(l.Tracks(), ref.Tracks()) {
		t.Errorf("%s: tracks = %v, want %v", label, l.Tracks(), ref.Tracks())
	}
	if !reflect.DeepEqual(l.SortedSpans(), ref.SortedSpans()) {
		t.Errorf("%s: sorted spans differ", label)
	}
	if string(traceEvents(t, l)) != string(traceEvents(t, ref)) {
		t.Errorf("%s: Chrome trace events differ from the unbounded log's", label)
	}
	if l.Len() != ref.Len() || l.NumInstants() != ref.NumInstants() {
		t.Errorf("%s: Len/NumInstants = %d/%d, want %d/%d", label, l.Len(), l.NumInstants(), ref.Len(), ref.NumInstants())
	}
	if l.Dropped() != dropped {
		t.Errorf("%s: Dropped = %d, want %d", label, l.Dropped(), dropped)
	}
}

// TestWindowKeepsLastRecordsInOrder: a window of n keeps the last n spans
// and the last n instants in recording order, before, at and well past
// wrap-around, and again after Reset, which keeps the window and
// restarts the dropped count.
func TestWindowKeepsLastRecordsInOrder(t *testing.T) {
	for _, n := range []int{1, 2, 7} {
		l := NewSpanLog()
		l.SetWindow(n)
		rng := rand.New(rand.NewSource(int64(n)))
		for _, size := range []int{0, n - 1, n, n + 1, 5*n + 3, 40} {
			l.Reset()
			recs := randomRecs(rng, size)
			record(l, recs)
			want, dropped := windowOf(recs, n)
			checkWindow(t, fmt.Sprintf("window %d, %d records", n, size), l, want, dropped)
		}
	}
}

// TestSetWindowOnAFilledLog: windowing a log that already holds records
// keeps its newest n of each kind; widening a wrapped ring keeps its
// records in order; removing the bound keeps what is held and everything
// after.
func TestSetWindowOnAFilledLog(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewSpanLog()
	var all []windowRec
	var dropped uint64
	step := func(label string, n, more int) {
		t.Helper()
		if n >= 0 {
			l.SetWindow(n)
		}
		recs := randomRecs(rng, more)
		record(l, recs)
		all = append(all, recs...)
		want := all
		if w := l.window; w > 0 {
			var d uint64
			want, d = windowOf(all, w)
			dropped += d
		}
		all = want
		checkWindow(t, label, l, want, dropped)
	}
	step("unbounded", -1, 30)
	step("windowed to 4", 4, 0)
	step("wrapped", -1, 11)
	step("widened to 9", 9, 0)
	step("filled past 9", -1, 25)
	step("unbounded again", 0, 12)
}

// TestChromeTraceLabelsAWindow: a log that dropped records says how many
// in otherData.dropped_records; a windowed log that has not wrapped, like
// an unbounded one, writes no otherData.
func TestChromeTraceLabelsAWindow(t *testing.T) {
	l := NewSpanLog()
	l.SetWindow(3)
	for i := 0; i < 3; i++ {
		l.Span("cart-0", "transit", units.Seconds(i), units.Seconds(i+1))
	}
	b, err := ChromeTrace(l)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "otherData") {
		t.Errorf("a window that dropped nothing is labelled:\n%s", b)
	}
	for i := 3; i < 10; i++ {
		l.Span("cart-0", "transit", units.Seconds(i), units.Seconds(i+1))
	}
	mark(l, "faults", "stall", 2)
	if b, err = ChromeTrace(l); err != nil {
		t.Fatal(err)
	}
	var f struct {
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if got := f.OtherData["dropped_records"]; got != "7" {
		t.Errorf("otherData.dropped_records = %q, want \"7\":\n%s", got, b)
	}
}
