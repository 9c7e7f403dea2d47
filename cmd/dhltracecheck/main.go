// Command dhltracecheck validates Chrome trace_event JSON files produced
// by dhlsim -trace-out (or any telemetry.ChromeTrace output): the file
// must parse as a trace_event object, timestamps of non-metadata events
// must be monotonically non-decreasing in file order (the exporter's
// sim-time ordering contract), and no complete event may carry a negative
// duration. CI runs it against a chaos-run trace to pin the exporter's
// invariants. A trace exported from a windowed span log (a server's, say)
// carries otherData.dropped_records, which must be a count; the check
// then also prints "window: N earlier records dropped".
//
// Usage:
//
//	dhltracecheck FILE...
//
// Exits non-zero on the first invalid file.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strconv"
)

// traceEvent is the subset of the trace_event schema the checks inspect.
type traceEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Ts   *float64 `json:"ts"`
	Dur  *float64 `json:"dur"`
	Pid  *int     `json:"pid"`
	Tid  *int     `json:"tid"`
}

// traceFile is the trace_event JSON object format.
type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
	OtherData   struct {
		DroppedRecords *string `json:"dropped_records"`
	} `json:"otherData"`
}

// checkTrace validates one trace document and returns the number of
// events checked and the records its window dropped before them (0 for a
// trace of a whole log).
func checkTrace(data []byte) (int, uint64, error) {
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, 0, fmt.Errorf("not parseable trace JSON: %w", err)
	}
	if f.TraceEvents == nil {
		return 0, 0, fmt.Errorf("missing traceEvents array")
	}
	var dropped uint64
	if d := f.OtherData.DroppedRecords; d != nil {
		n, err := strconv.ParseUint(*d, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("otherData.dropped_records %q is not a count", *d)
		}
		dropped = n
	}
	lastTs := 0.0
	seenTs := false
	for i, e := range f.TraceEvents {
		if e.Ph == "" {
			return 0, 0, fmt.Errorf("event %d (%q): missing ph", i, e.Name)
		}
		if e.Pid == nil || e.Tid == nil {
			return 0, 0, fmt.Errorf("event %d (%q): missing pid/tid", i, e.Name)
		}
		if e.Ph == "M" {
			continue // metadata events carry no timeline position
		}
		if e.Ts == nil {
			return 0, 0, fmt.Errorf("event %d (%q): missing ts", i, e.Name)
		}
		if seenTs && *e.Ts < lastTs {
			return 0, 0, fmt.Errorf("event %d (%q): ts %v before predecessor %v — sim-time order violated",
				i, e.Name, *e.Ts, lastTs)
		}
		lastTs, seenTs = *e.Ts, true
		if e.Ph == "X" {
			if e.Dur == nil {
				return 0, 0, fmt.Errorf("event %d (%q): complete event missing dur", i, e.Name)
			}
			if *e.Dur < 0 {
				return 0, 0, fmt.Errorf("event %d (%q): negative dur %v", i, e.Name, *e.Dur)
			}
		}
	}
	return len(f.TraceEvents), dropped, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dhltracecheck: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: dhltracecheck FILE...")
	}
	for _, path := range os.Args[1:] {
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		n, dropped, err := checkTrace(data)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		fmt.Printf("%s: ok (%d events, sim-time monotone)\n", path, n)
		if dropped > 0 {
			fmt.Printf("%s: window: %d earlier records dropped\n", path, dropped)
		}
	}
}
