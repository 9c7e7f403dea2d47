package telemetry

import (
	"encoding/json"
	"sort"
	"strconv"
)

// Chrome trace_event exporter: renders a SpanLog as the JSON object format
// understood by chrome://tracing and Perfetto. Simulated seconds map to
// trace microseconds (the format's native unit), tracks map to thread
// lanes, and all events are emitted in non-decreasing timestamp order —
// the invariant cmd/dhltracecheck validates in CI.

// chromeEvent is one trace_event entry. Field order fixes the marshalled
// byte layout; Args is an ordered-KV rendering, never a Go map.
type chromeEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`
	Dur  *float64        `json:"dur,omitempty"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	S    string          `json:"s,omitempty"`
	Args json.RawMessage `json:"args,omitempty"`
}

// chromeTraceFile is the top-level trace object.
type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       *traceWindow  `json:"otherData,omitempty"`
}

// traceWindow is the otherData of a trace whose log has dropped records:
// the trace is a window, and DroppedRecords says how many records came
// before it. The format's otherData values are strings.
type traceWindow struct {
	DroppedRecords string `json:"dropped_records"`
}

// secondsToMicros converts simulated seconds to trace microseconds.
func secondsToMicros(s float64) float64 { return s * 1e6 }

// argsJSON renders ordered KV pairs as a JSON object, preserving order.
func argsJSON(kv []KV) json.RawMessage {
	if len(kv) == 0 {
		return nil
	}
	buf := []byte{'{'}
	for i, p := range kv {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, _ := json.Marshal(p.Key)
		v, _ := json.Marshal(p.Value)
		buf = append(buf, k...)
		buf = append(buf, ':')
		buf = append(buf, v...)
	}
	buf = append(buf, '}')
	return buf
}

// ChromeTrace renders the span log as Chrome trace_event JSON. The output
// is byte-deterministic for a given log: tracks get thread IDs in
// first-appearance order (named via thread_name metadata), and events are
// sorted by timestamp with recording order breaking ties. A log whose
// window has dropped records says so in otherData.dropped_records; any
// other log's trace has no otherData. A nil log yields an empty (but
// valid) trace.
func ChromeTrace(l *SpanLog) ([]byte, error) {
	const pid = 1
	tids := make(map[string]int)
	var events []chromeEvent
	for i, track := range l.Tracks() {
		tid := i + 1
		tids[track] = tid
		events = append(events, chromeEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  pid,
			Tid:  tid,
			Args: argsJSON([]KV{{Key: "name", Value: track}}),
		})
	}
	var timed []chromeEvent
	for _, s := range l.SortedSpans() {
		dur := secondsToMicros(float64(s.End - s.Start))
		d := dur
		timed = append(timed, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   secondsToMicros(float64(s.Start)),
			Dur:  &d,
			Pid:  pid,
			Tid:  tids[s.Track],
			Args: argsJSON(s.Args),
		})
	}
	l.EachInstant(func(in Instant) {
		timed = append(timed, chromeEvent{
			Name: in.Name,
			Ph:   "i",
			Ts:   secondsToMicros(float64(in.At)),
			Pid:  pid,
			Tid:  tids[in.Track],
			S:    "t",
			Args: argsJSON(in.Args),
		})
	})
	// Merge to one non-decreasing timeline; stable sort keeps the
	// deterministic recording order for ties.
	sort.SliceStable(timed, func(i, j int) bool { return timed[i].Ts < timed[j].Ts })
	events = append(events, timed...)
	f := chromeTraceFile{TraceEvents: events, DisplayTimeUnit: "ms"}
	if f.TraceEvents == nil {
		f.TraceEvents = []chromeEvent{}
	}
	if d := l.Dropped(); d > 0 {
		f.OtherData = &traceWindow{DroppedRecords: strconv.FormatUint(d, 10)}
	}
	return json.MarshalIndent(f, "", " ")
}
