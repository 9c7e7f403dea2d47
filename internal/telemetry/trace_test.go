package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/units"
)

// mark records an instant by name through the interned path the models
// use.
func mark(l *SpanLog, track, name string, at units.Seconds, args ...KV) {
	l.RecordInstant(l.Intern(track), l.Intern(name), at, l.ArgsOf(args...))
}

// instants collects the log's instants through EachInstant.
func instants(l *SpanLog) []Instant {
	var out []Instant
	l.EachInstant(func(in Instant) { out = append(out, in) })
	return out
}

func TestSpanLogRecordsAndSorts(t *testing.T) {
	l := NewSpanLog()
	l.Span("cart-1", "transit", 10, 30, KV{Key: "dir", Value: "outbound"})
	l.Span("cart-0", "undock", 0, 5)
	l.Span("cart-0", "transit", 5, 25)
	mark(l, "faults", "ssd-failure", 12)
	if l.Len() != 4 {
		t.Fatalf("len = %d, want 4", l.Len())
	}
	sorted := l.SortedSpans()
	if sorted[0].Name != "undock" || sorted[1].Name != "transit" || sorted[1].Track != "cart-0" {
		t.Errorf("sort order wrong: %+v", sorted)
	}
	tracks := l.Tracks()
	want := []string{"cart-1", "cart-0", "faults"}
	if len(tracks) != len(want) {
		t.Fatalf("tracks = %v, want %v", tracks, want)
	}
	for i := range want {
		if tracks[i] != want[i] {
			t.Errorf("tracks[%d] = %q, want %q", i, tracks[i], want[i])
		}
	}
}

func TestSpanInvertedIntervalClamped(t *testing.T) {
	l := NewSpanLog()
	l.Span("x", "weird", 10, 5)
	s := l.Spans()[0]
	if s.End != s.Start {
		t.Errorf("inverted span not clamped: %+v", s)
	}
}

func TestNilSpanLogIsNoOp(t *testing.T) {
	var l *SpanLog
	l.Span("a", "b", 0, 1)
	mark(l, "a", "c", 2)
	if l.Len() != 0 || l.Spans() != nil || l.NumInstants() != 0 || l.Tracks() != nil {
		t.Error("nil span log must stay empty")
	}
	b, err := ChromeTrace(l)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) {
		t.Error("nil-log trace is not valid JSON")
	}
}

// traceShape mirrors the subset of trace_event JSON the tests inspect.
type traceShape struct {
	TraceEvents []struct {
		Name string          `json:"name"`
		Ph   string          `json:"ph"`
		Ts   float64         `json:"ts"`
		Dur  float64         `json:"dur"`
		Pid  int             `json:"pid"`
		Tid  int             `json:"tid"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

func TestChromeTraceStructure(t *testing.T) {
	l := NewSpanLog()
	l.Span("cart-0", "undock", 0, 5)
	l.Span("cart-0", "transit", 5, 25, KV{Key: "degraded", Value: "true"})
	mark(l, "faults", "vacuum-leak", 7, KV{Key: "pressure", Value: "5000Pa"})
	b, err := ChromeTrace(l)
	if err != nil {
		t.Fatal(err)
	}
	var tr traceShape
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace is not parseable JSON: %v", err)
	}
	var meta, complete, instant int
	lastTs := math.Inf(-1)
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if e.Dur < 0 {
				t.Errorf("negative dur on %q", e.Name)
			}
		case "i":
			instant++
		}
		if e.Ph != "M" {
			if e.Ts < lastTs {
				t.Errorf("timestamps not monotone at %q: %v after %v", e.Name, e.Ts, lastTs)
			}
			lastTs = e.Ts
		}
	}
	if meta != 2 || complete != 2 || instant != 1 {
		t.Errorf("event mix = %d meta, %d complete, %d instant; want 2/2/1", meta, complete, instant)
	}
	// Sim seconds → trace microseconds.
	if !strings.Contains(string(b), `"ts": 5e+06`) && !strings.Contains(string(b), `"ts": 5000000`) {
		t.Errorf("expected 5 s span start at 5e6 µs:\n%s", b)
	}
	// Args keep KV order and content.
	if !strings.Contains(string(b), `"pressure": "5000Pa"`) {
		t.Errorf("instant args missing:\n%s", b)
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	build := func() string {
		l := NewSpanLog()
		l.Span("cart-1", "transit", 3, 9)
		l.Span("cart-0", "transit", 1, 4, KV{Key: "k", Value: "v"})
		mark(l, "faults", "stall", 2)
		b, err := ChromeTrace(l)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := build(), build(); a != b {
		t.Errorf("trace differs between identical logs:\n%s\nvs\n%s", a, b)
	}
}

func TestSpanSummary(t *testing.T) {
	l := NewSpanLog()
	l.Span("cart-0", "transit", 0, 10)
	l.Span("cart-0", "transit", 20, 35)
	mark(l, "faults", "stall", 5)
	out := SpanSummary(l)
	if !strings.Contains(out, "transit") || !strings.Contains(out, "25.000") {
		t.Errorf("span summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "+1 instant") {
		t.Errorf("instants not counted:\n%s", out)
	}
	if SpanSummary(nil) != "" {
		t.Error("nil log summary should be empty")
	}
}

func TestSpanArgsCopiedNotRetained(t *testing.T) {
	l := NewSpanLog()
	args := []KV{{Key: "site", Value: "library"}}
	l.Span("cart-0", "undock", 0, 5, args...)
	mark(l, "faults", "stall", 3, args...)
	args[0] = KV{Key: "clobbered", Value: "yes"}
	if got := l.Spans()[0].Args[0]; got.Key != "site" || got.Value != "library" {
		t.Errorf("span retained the caller's args slice: %+v", got)
	}
	if got := instants(l)[0].Args[0]; got.Key != "site" || got.Value != "library" {
		t.Errorf("instant retained the caller's args slice: %+v", got)
	}
}

func TestArgSlabSurvivesChunkRollover(t *testing.T) {
	// Force the arg store through several growths and verify early sets
	// stay intact: sets hold indices into the store, so a growth must
	// never move or overwrite annotations already recorded.
	l := NewSpanLog()
	n := spanLogInitialArgs*2 + 7
	for i := 0; i < n; i++ {
		l.Span("t", "s", 0, 1,
			KV{Key: "i", Value: strconv.Itoa(i)},
			KV{Key: "j", Value: strconv.Itoa(i + 1)})
	}
	spans := l.Spans()
	for i, s := range spans {
		if len(s.Args) != 2 || s.Args[0].Value != strconv.Itoa(i) || s.Args[1].Value != strconv.Itoa(i+1) {
			t.Fatalf("span %d args corrupted after rollover: %+v", i, s.Args)
		}
	}
}

func TestEachMatchesCopyingAccessors(t *testing.T) {
	l := NewSpanLog()
	l.Span("cart-1", "transit", 3, 9)
	l.Span("cart-0", "transit", 1, 4, KV{Key: "k", Value: "v"})
	mark(l, "faults", "stall", 2, KV{Key: "delay_s", Value: "5"})
	mark(l, "faults", "leak", 6)

	var iterSpans []Span
	l.EachSpan(func(s Span) { iterSpans = append(iterSpans, s) })
	copySpans := l.Spans()
	if len(iterSpans) != len(copySpans) || len(iterSpans) != l.Len()-l.NumInstants() {
		t.Fatalf("EachSpan yielded %d spans, Spans %d, Len-NumInstants %d",
			len(iterSpans), len(copySpans), l.Len()-l.NumInstants())
	}
	for i := range copySpans {
		a, b := iterSpans[i], copySpans[i]
		if a.Track != b.Track || a.Name != b.Name || len(a.Args) != len(b.Args) {
			t.Errorf("span %d differs between paths: %+v vs %+v", i, a, b)
		}
	}
	want := []Instant{
		{Track: "faults", Name: "stall", At: 2, Args: []KV{{Key: "delay_s", Value: "5"}}},
		{Track: "faults", Name: "leak", At: 6},
	}
	if got := instants(l); !reflect.DeepEqual(got, want) || l.NumInstants() != len(want) {
		t.Fatalf("EachInstant yielded %+v (NumInstants %d), want %+v", got, l.NumInstants(), want)
	}

	// Nil receivers: zero counts, no callbacks.
	var nilLog *SpanLog
	if nilLog.Len() != 0 || nilLog.NumInstants() != 0 {
		t.Error("nil log counts must be zero")
	}
	nilLog.EachSpan(func(Span) { t.Error("EachSpan callback on nil log") })
	nilLog.EachInstant(func(Instant) { t.Error("EachInstant callback on nil log") })
}

// TestExportersByteIdenticalToCopyPath pins the exporter output against a
// reference render built from the copying accessors — the iteration path
// must not change a single byte of either export format.
func TestExportersByteIdenticalToCopyPath(t *testing.T) {
	l := NewSpanLog()
	l.Span("cart-0", "undock", 0, 5, KV{Key: "site", Value: "library"})
	l.Span("cart-1", "transit", 5, 25, KV{Key: "degraded", Value: "true"})
	l.Span("cart-0", "transit", 5, 20)
	mark(l, "faults", "vacuum-leak", 7, KV{Key: "pressure", Value: "5000Pa"})
	mark(l, "faults", "stall", 9)

	// Reference: a second log rebuilt through the copying accessors holds
	// equal data, so both exports must serialise identically.
	ref := NewSpanLog()
	for _, s := range l.Spans() {
		ref.Span(s.Track, s.Name, s.Start, s.End, s.Args...)
	}
	for _, in := range instants(l) {
		mark(ref, in.Track, in.Name, in.At, in.Args...)
	}

	got, err := ChromeTrace(l)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ChromeTrace(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("ChromeTrace differs from copy-path reference:\n%s\nvs\n%s", got, want)
	}
	if a, b := SpanSummary(l), SpanSummary(ref); a != b {
		t.Errorf("SpanSummary differs from copy-path reference:\n%s\nvs\n%s", a, b)
	}
}
