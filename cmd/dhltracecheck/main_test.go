package main

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/units"
)

func TestCheckTraceAcceptsExporterOutput(t *testing.T) {
	l := telemetry.NewSpanLog()
	l.Span("cart-0", "transit", 10, 110, telemetry.KV{Key: "dir", Value: "outbound"})
	l.Span("cart-1", "dock", 120, 125)
	l.RecordInstant(l.Intern("cart-0"), l.Intern("reroute"), 130, 0)
	data, err := telemetry.ChromeTrace(l)
	if err != nil {
		t.Fatal(err)
	}
	n, dropped, err := checkTrace(data)
	if err != nil {
		t.Fatalf("exporter output rejected: %v", err)
	}
	// 2 tracks × 1 metadata event + 3 timeline events.
	if n != 5 || dropped != 0 {
		t.Errorf("checked %d events with %d dropped, want 5 and 0", n, dropped)
	}
}

// TestCheckTraceReportsAWindow: the trace of a windowed log that dropped
// records is valid, and the check reads how many it dropped.
func TestCheckTraceReportsAWindow(t *testing.T) {
	l := telemetry.NewSpanLog()
	l.SetWindow(2)
	for i := 0; i < 5; i++ {
		l.Span("cart-0", "transit", units.Seconds(i), units.Seconds(i+1))
	}
	data, err := telemetry.ChromeTrace(l)
	if err != nil {
		t.Fatal(err)
	}
	n, dropped, err := checkTrace(data)
	if err != nil {
		t.Fatalf("windowed exporter output rejected: %v", err)
	}
	if n != 3 || dropped != 3 {
		t.Errorf("checked %d events with %d dropped, want 3 and 3", n, dropped)
	}
}

func TestCheckTraceRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"not json", `{"traceEvents": [`, "not parseable"},
		{"missing array", `{"displayTimeUnit": "ms"}`, "missing traceEvents"},
		{"missing ph", `{"traceEvents": [{"name": "x", "ts": 1, "pid": 1, "tid": 1}]}`, "missing ph"},
		{"missing pid", `{"traceEvents": [{"name": "x", "ph": "X", "ts": 1, "dur": 1, "tid": 1}]}`, "missing pid/tid"},
		{"missing ts", `{"traceEvents": [{"name": "x", "ph": "i", "pid": 1, "tid": 1}]}`, "missing ts"},
		{"time travel", `{"traceEvents": [
			{"name": "a", "ph": "X", "ts": 100, "dur": 1, "pid": 1, "tid": 1},
			{"name": "b", "ph": "X", "ts": 50, "dur": 1, "pid": 1, "tid": 1}]}`, "sim-time order violated"},
		{"missing dur", `{"traceEvents": [{"name": "x", "ph": "X", "ts": 1, "pid": 1, "tid": 1}]}`, "missing dur"},
		{"negative dur", `{"traceEvents": [{"name": "x", "ph": "X", "ts": 1, "dur": -2, "pid": 1, "tid": 1}]}`, "negative dur"},
		{"dropped not a count", `{"traceEvents": [], "otherData": {"dropped_records": "-3"}}`, "not a count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := checkTrace([]byte(tc.data))
			if err == nil {
				t.Fatal("invalid trace accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCheckTraceMetadataExemptFromOrdering(t *testing.T) {
	// "M" events carry no ts and may appear anywhere; real exporter output
	// front-loads them before timeline events.
	data := `{"traceEvents": [
		{"name": "a", "ph": "X", "ts": 100, "dur": 5, "pid": 1, "tid": 1},
		{"name": "thread_name", "ph": "M", "pid": 1, "tid": 2},
		{"name": "b", "ph": "i", "ts": 200, "pid": 1, "tid": 2}]}`
	if _, _, err := checkTrace([]byte(data)); err != nil {
		t.Errorf("metadata between timeline events rejected: %v", err)
	}
}
