package telemetry

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// KV is one span annotation. Annotations are ordered slices, not maps, so
// every export path is free of map-iteration order.
type KV struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one completed interval on a named track (e.g. a cart's
// transit), in simulated seconds.
type Span struct {
	Track string        `json:"track"`
	Name  string        `json:"name"`
	Start units.Seconds `json:"start_s"`
	End   units.Seconds `json:"end_s"`
	Args  []KV          `json:"args,omitempty"`
}

// Instant is one zero-duration event on a track (fault strikes, retries,
// reroutes).
type Instant struct {
	Track string        `json:"track"`
	Name  string        `json:"name"`
	At    units.Seconds `json:"at_s"`
	Args  []KV          `json:"args,omitempty"`
}

// StrID is an interned track or span name — an index into the log's
// string table. The hot record path (RecordSpan/RecordInstant) takes
// StrIDs so a record is a pointer-free fixed-size append; instrumented
// subsystems intern their fixed name sets once at construction.
type StrID uint16

// ArgID is an interned annotation set — an index into the log's
// annotation table, with 0 the empty set. The hot record path takes an
// ArgID, so an annotated record stores one integer instead of copying its
// KVs; instrumented subsystems intern their fixed sets once at
// construction, and cold sites with computed values dedup through ArgsOf.
type ArgID uint32

// spanRec is the in-memory form of one span: 24 pointer-free bytes, so
// the record slab is exempt from GC scanning and appends carry no write
// barriers. Strings and args are materialised on export.
type spanRec struct {
	start, end  float64
	track, name StrID
	args        ArgID
}

// instRec is the in-memory form of one instant: 16 pointer-free bytes.
type instRec struct {
	at          float64
	track, name StrID
	args        ArgID
}

// argWin is one interned annotation set's [start, end) window in argLog.
type argWin struct{ start, end uint32 }

// argKey is ArgsOf's dedup key: the set's length and first two KVs, and
// for a longer set the ArgID of its tail, itself deduplicated. Keying on
// the KV values keeps a lookup free of any string building.
type argKey struct {
	n    int
	head [2]KV
	tail ArgID
}

// SpanLog accumulates spans and instants in recording order. Spans are
// recorded at completion, so recording order follows simulation time of
// the span *ends*; exporters re-sort by start time where their format
// requires it. All methods are no-ops on a nil receiver, making a
// disabled trace cost one nil check per site.
//
// Like Registry, a SpanLog belongs to one single-threaded simulation.
type SpanLog struct {
	recs     []spanRec
	instRecs []instRec

	// strs is the intern table StrIDs index. Intern appends without
	// dedup (hot callers intern each constant exactly once, at
	// construction); the string-keyed compat path dedups through strIDs,
	// built lazily so ID-only logs never pay for the map.
	strs   []string
	strIDs map[string]StrID

	// argLog is the flat backing store of the interned annotation sets;
	// argSets[id-1] is set id's window in it. Windows are indices rather
	// than slices, so growing the store never invalidates a set. ArgsOf
	// dedups through argIDs, built lazily like strIDs.
	argLog  []KV
	argSets []argWin
	argIDs  map[argKey]ArgID
}

// Initial capacities, allocated lazily on first record so an idle log
// costs nothing. A live trace records hundreds of spans; starting at a
// real capacity avoids the doubling copies that would otherwise dominate
// the record path.
const (
	spanLogInitialSpans    = 160
	spanLogInitialInstants = 16
	spanLogInitialArgs     = 16 // annotation sets, and KVs in their store
)

// NewSpanLog returns an empty log.
func NewSpanLog() *SpanLog { return &SpanLog{} }

// Reset empties the log for reuse, keeping the record, string-table, and
// arg-store backing arrays — after a warm-up run, a recycled log records
// with no allocations at all. Interned StrIDs and ArgIDs from before the
// Reset are invalidated (both tables empty); re-intern after each Reset.
// Safe on a nil receiver.
//
//dhllint:hotpath
func (l *SpanLog) Reset() {
	if l == nil {
		return
	}
	l.recs = l.recs[:0]
	l.instRecs = l.instRecs[:0]
	l.strs = l.strs[:0]
	clear(l.strIDs)
	l.argLog = l.argLog[:0]
	l.argSets = l.argSets[:0]
	clear(l.argIDs)
}

// Intern adds s to the log's string table and returns its ID. It does not
// deduplicate: callers intern each fixed name once (typically at system
// construction) and pass the IDs to RecordSpan/RecordInstant. Returns 0
// on a nil receiver (harmless: every record path on nil is a no-op).
//
//dhllint:hotpath
func (l *SpanLog) Intern(s string) StrID {
	if l == nil {
		return 0
	}
	if len(l.strs) >= 1<<16 {
		//dhllint:allow allocflow -- 64Ki-interns overflow is unreachable in a real run; dying loudly beats wrapping
		panic(fmt.Sprintf("telemetry: span log string table overflow interning %q", s))
	}
	if l.strs == nil {
		//dhllint:allow allocflow -- lazy first-use growth; steady state appends within capacity
		l.strs = make([]string, 0, 32)
	}
	l.strs = append(l.strs, s)
	return StrID(len(l.strs) - 1)
}

// InternArgs adds the annotation set kv to the log's table and returns its
// ID; the empty set is 0. Like Intern it does not deduplicate: callers
// intern each fixed set once (typically at system construction) and pass
// the ID to RecordSpan/RecordInstant. kv is copied, never retained.
// Returns 0 on a nil receiver.
//
//dhllint:hotpath
func (l *SpanLog) InternArgs(kv ...KV) ArgID {
	if l == nil || len(kv) == 0 {
		return 0
	}
	if l.argSets == nil {
		//dhllint:allow allocflow -- lazy first-use growth; steady state appends within capacity
		l.argSets = make([]argWin, 0, spanLogInitialArgs)
		//dhllint:allow allocflow -- lazy first-use growth; steady state appends within capacity
		l.argLog = make([]KV, 0, spanLogInitialArgs)
	}
	start := uint32(len(l.argLog))
	l.argLog = append(l.argLog, kv...)
	l.argSets = append(l.argSets, argWin{start: start, end: uint32(len(l.argLog))})
	return ArgID(len(l.argSets))
}

// ArgsOf returns the ID of the annotation set kv, interning it on first
// use: equal sets share one ID. It is the path for annotations computed
// at record time (fault targets, stop names); it costs a map lookup, so
// hot paths intern their fixed sets once with InternArgs instead. kv is
// copied, never retained. Returns 0 on a nil receiver.
func (l *SpanLog) ArgsOf(kv ...KV) ArgID {
	if l == nil || len(kv) == 0 {
		return 0
	}
	k := argKey{n: len(kv)}
	copy(k.head[:], kv)
	if len(kv) > len(k.head) {
		k.tail = l.ArgsOf(kv[len(k.head):]...)
	}
	if id, ok := l.argIDs[k]; ok {
		return id
	}
	id := l.InternArgs(kv...)
	if l.argIDs == nil {
		l.argIDs = make(map[argKey]ArgID, 16)
	}
	l.argIDs[k] = id
	return id
}

// Grow reserves capacity for at least spans more span records and
// instants more instant records beyond the current lengths. A caller that
// knows its recording volume can pre-size the log and keep every
// subsequent record within capacity — the complement of Reset for pinning
// the zero-allocation record path without recycling. Safe on a nil
// receiver.
func (l *SpanLog) Grow(spans, instants int) {
	if l == nil {
		return
	}
	l.recs = growCap(l.recs, spans)
	l.instRecs = growCap(l.instRecs, instants)
}

// growCap ensures s has capacity for at least n more elements.
func growCap[T any](s []T, n int) []T {
	if n <= cap(s)-len(s) {
		return s
	}
	out := make([]T, len(s), len(s)+n)
	copy(out, s)
	return out
}

// internDedup is the string-compat path's lookup: one table entry per
// distinct string, building the reverse index lazily.
func (l *SpanLog) internDedup(s string) StrID {
	if id, ok := l.strIDs[s]; ok {
		return id
	}
	id := l.Intern(s)
	if l.strIDs == nil {
		l.strIDs = make(map[string]StrID, 16)
	}
	l.strIDs[s] = id
	return id
}

// RecordSpan records a completed interval on interned track/name IDs and
// an interned annotation set (0 for none) — the allocation-flat hot path.
// Inverted intervals (end < start) are clamped to zero duration at start.
//
//dhllint:hotpath
func (l *SpanLog) RecordSpan(track, name StrID, start, end units.Seconds, args ArgID) {
	if l == nil {
		return
	}
	if end < start {
		end = start
	}
	if l.recs == nil {
		//dhllint:allow allocflow -- lazy first-use growth; steady state appends within capacity
		l.recs = make([]spanRec, 0, spanLogInitialSpans)
	}
	l.recs = append(l.recs, spanRec{
		start: float64(start), end: float64(end),
		track: track, name: name, args: args,
	})
}

// RecordInstant records a zero-duration event on interned IDs.
//
//dhllint:hotpath
func (l *SpanLog) RecordInstant(track, name StrID, at units.Seconds, args ArgID) {
	if l == nil {
		return
	}
	if l.instRecs == nil {
		//dhllint:allow allocflow -- lazy first-use growth; steady state appends within capacity
		l.instRecs = make([]instRec, 0, spanLogInitialInstants)
	}
	l.instRecs = append(l.instRecs, instRec{
		at: float64(at), track: track, name: name, args: args,
	})
}

// Span records a completed interval by name — the string-keyed
// compatibility path, which interns names and args through dedup maps.
// Hot paths should intern once and use RecordSpan. The args slice is
// copied, never retained.
func (l *SpanLog) Span(track, name string, start, end units.Seconds, args ...KV) {
	if l == nil {
		return
	}
	l.RecordSpan(l.internDedup(track), l.internDedup(name), start, end, l.ArgsOf(args...))
}

// Mark records an instant event by name. The args slice is copied, never
// retained.
func (l *SpanLog) Mark(track, name string, at units.Seconds, args ...KV) {
	if l == nil {
		return
	}
	l.RecordInstant(l.internDedup(track), l.internDedup(name), at, l.ArgsOf(args...))
}

// argsOf returns annotation set id as a capacity-capped view.
func (l *SpanLog) argsOf(id ArgID) []KV {
	if id == 0 {
		return nil
	}
	w := l.argSets[id-1]
	return l.argLog[w.start:w.end:w.end]
}

// spanAt materialises record i.
func (l *SpanLog) spanAt(i int) Span {
	r := &l.recs[i]
	return Span{
		Track: l.strs[r.track], Name: l.strs[r.name],
		Start: units.Seconds(r.start), End: units.Seconds(r.end),
		Args: l.argsOf(r.args),
	}
}

// instantAt materialises instant record i.
func (l *SpanLog) instantAt(i int) Instant {
	r := &l.instRecs[i]
	return Instant{
		Track: l.strs[r.track], Name: l.strs[r.name],
		At:   units.Seconds(r.at),
		Args: l.argsOf(r.args),
	}
}

// Len returns the number of recorded spans plus instants (0 on nil).
func (l *SpanLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.recs) + len(l.instRecs)
}

// NumSpans returns the number of recorded spans (0 on nil).
func (l *SpanLog) NumSpans() int {
	if l == nil {
		return 0
	}
	return len(l.recs)
}

// NumInstants returns the number of recorded instants (0 on nil).
func (l *SpanLog) NumInstants() int {
	if l == nil {
		return 0
	}
	return len(l.instRecs)
}

// EachSpan calls fn for every recorded span in recording order without
// copying the log. fn must not record into the log.
func (l *SpanLog) EachSpan(fn func(Span)) {
	if l == nil {
		return
	}
	for i := range l.recs {
		fn(l.spanAt(i))
	}
}

// EachInstant calls fn for every recorded instant in recording order
// without copying the log. fn must not record into the log.
func (l *SpanLog) EachInstant(fn func(Instant)) {
	if l == nil {
		return
	}
	for i := range l.instRecs {
		fn(l.instantAt(i))
	}
}

// Spans returns a copy of the recorded spans in recording order. Exporters
// that only walk the log should prefer EachSpan, which materialises
// in place.
func (l *SpanLog) Spans() []Span {
	if l == nil {
		return nil
	}
	out := make([]Span, len(l.recs))
	for i := range l.recs {
		out[i] = l.spanAt(i)
	}
	return out
}

// Instants returns a copy of the recorded instants in recording order.
// Exporters that only walk the log should prefer EachInstant.
func (l *SpanLog) Instants() []Instant {
	if l == nil {
		return nil
	}
	out := make([]Instant, len(l.instRecs))
	for i := range l.instRecs {
		out[i] = l.instantAt(i)
	}
	return out
}

// Tracks returns every track name appearing in the log, first-appearance
// ordered (spans scanned before instants). The ordering is deterministic
// because recording order is.
func (l *SpanLog) Tracks() []string {
	if l == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for i := range l.recs {
		t := l.strs[l.recs[i].track]
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for i := range l.instRecs {
		t := l.strs[l.instRecs[i].track]
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// SortedSpans returns the spans ordered by (Start, End, recording order) —
// the order the Chrome exporter and summary table use.
func (l *SpanLog) SortedSpans() []Span {
	out := l.Spans()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start < out[j].Start {
			return true
		}
		if out[j].Start < out[i].Start {
			return false
		}
		return out[i].End < out[j].End
	})
	return out
}
