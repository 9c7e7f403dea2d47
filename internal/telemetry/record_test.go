package telemetry

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/units"
)

// TestRecordLayout pins the record slabs' layout: fixed-size records with
// no pointer in them, so the slabs stay out of the GC's scan and an append
// carries no write barrier. A field that regrows a record or adds a
// pointer fails here rather than only in a benchmark.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(spanRec{}); got != 24 {
		t.Errorf("spanRec is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(instRec{}); got != 16 {
		t.Errorf("instRec is %d bytes, want 16", got)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(spanRec{}), reflect.TypeOf(instRec{})} {
		if path, ok := pointerIn(typ, typ.Name()); ok {
			t.Errorf("%s holds a pointer at %s", typ.Name(), path)
		}
	}
}

// pointerIn reports the first field path in typ whose memory holds a
// pointer the GC must scan.
func pointerIn(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return path, true
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerIn(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
	}
	return "", false
}

// TestInternedPathMatchesCompatPath records random span and instant
// sequences twice — through interned IDs (Intern, InternArgs, RecordSpan,
// RecordInstant) and through the string-keyed Span/Mark with the same
// KVs — and requires byte-identical exports.
func TestInternedPathMatchesCompatPath(t *testing.T) {
	tracks := []string{"cart-0", "cart-1", "faults"}
	names := []string{"transit", "dock", "stall"}
	kvs := []KV{
		{Key: "dir", Value: "outbound"}, {Key: "dir", Value: "inbound"},
		{Key: "degraded", Value: "true"}, {Key: "site", Value: "library"},
	}
	// Sets of zero to three KVs, including one longer than ArgsOf's
	// two-KV key head and two that share a head.
	sets := [][]KV{
		nil,
		{kvs[0]}, {kvs[1]}, {kvs[3]},
		{kvs[0], kvs[2]}, {kvs[1], kvs[2]},
		{kvs[0], kvs[2], kvs[3]}, {kvs[0], kvs[2], kvs[1]},
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids, compat := NewSpanLog(), NewSpanLog()
		trackIDs := make([]StrID, len(tracks))
		for i, s := range tracks {
			trackIDs[i] = ids.Intern(s)
		}
		nameIDs := make([]StrID, len(names))
		for i, s := range names {
			nameIDs[i] = ids.Intern(s)
		}
		setIDs := make([]ArgID, len(sets))
		for i, kv := range sets {
			setIDs[i] = ids.InternArgs(kv...)
		}
		for i := 0; i < 200; i++ {
			tr, nm, set := rng.Intn(len(tracks)), rng.Intn(len(names)), rng.Intn(len(sets))
			start := units.Seconds(rng.Intn(50))
			if rng.Intn(4) == 0 {
				ids.RecordInstant(trackIDs[tr], nameIDs[nm], start, setIDs[set])
				compat.Mark(tracks[tr], names[nm], start, sets[set]...)
				continue
			}
			end := start + units.Seconds(rng.Intn(10)) - 1 // sometimes inverted
			ids.RecordSpan(trackIDs[tr], nameIDs[nm], start, end, setIDs[set])
			compat.Span(tracks[tr], names[nm], start, end, sets[set]...)
		}
		a, err := ChromeTrace(ids)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ChromeTrace(compat)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("seed %d: ChromeTrace differs between the interned and compat paths", seed)
		}
		if x, y := SpanSummary(ids), SpanSummary(compat); x != y {
			t.Fatalf("seed %d: SpanSummary differs:\n%s\nvs\n%s", seed, x, y)
		}
		if !reflect.DeepEqual(ids.Spans(), compat.Spans()) || !reflect.DeepEqual(ids.Instants(), compat.Instants()) {
			t.Fatalf("seed %d: materialised records differ between the paths", seed)
		}
	}
}

func TestArgsOfDedups(t *testing.T) {
	l := NewSpanLog()
	a, b, c := KV{Key: "a", Value: "1"}, KV{Key: "b", Value: "2"}, KV{Key: "c", Value: "3"}
	distinct := [][]KV{
		{a}, {b}, {a, b}, {b, a}, {a, b, c}, {a, b, a}, {a, b, c, a},
		{a, {}}, // one KV plus an empty one is not the set {a}
	}
	seen := make(map[ArgID]int)
	for i, kv := range distinct {
		id := l.ArgsOf(kv...)
		if id == 0 {
			t.Fatalf("set %v got the empty ID", kv)
		}
		if j, dup := seen[id]; dup {
			t.Errorf("sets %v and %v share ID %d", distinct[j], kv, id)
		}
		seen[id] = i
		// An equal set in a fresh slice maps to the same ID.
		if again := l.ArgsOf(append([]KV(nil), kv...)...); again != id {
			t.Errorf("set %v: ArgsOf = %d, then %d", kv, id, again)
		}
		if got := l.argsOf(id); !reflect.DeepEqual(got, kv) {
			t.Errorf("ID %d materialises %v, want %v", id, got, kv)
		}
	}
	if id := l.ArgsOf(); id != 0 {
		t.Errorf("empty set = %d, want 0", id)
	}
	var nilLog *SpanLog
	if nilLog.ArgsOf(a) != 0 || nilLog.InternArgs(a) != 0 {
		t.Error("a nil log must hand out the empty ID")
	}
}

// TestArgsReinternedAfterReset checks that Reset empties the annotation
// table and ArgsOf's index together: a set interned after the Reset
// materialises its own KVs, never a stale set's that held its ID before.
func TestArgsReinternedAfterReset(t *testing.T) {
	x, y := KV{Key: "site", Value: "library"}, KV{Key: "dir", Value: "inbound"}
	l := NewSpanLog()
	cart, name := l.Intern("cart-0"), l.Intern("dock")
	l.RecordSpan(cart, name, 0, 1, l.ArgsOf(x))
	l.Reset()
	cart, name = l.Intern("cart-0"), l.Intern("dock")
	yID := l.InternArgs(y)
	xID := l.ArgsOf(x) // x's old ID now belongs to y
	if xID == yID {
		t.Fatalf("ArgsOf returned the stale ID %d after Reset", xID)
	}
	l.RecordSpan(cart, name, 0, 1, yID)
	l.RecordInstant(cart, name, 2, xID)
	l.Mark("cart-0", "dock", 3, y)
	want := []Span{{Track: "cart-0", Name: "dock", Start: 0, End: 1, Args: []KV{y}}}
	if got := l.Spans(); !reflect.DeepEqual(got, want) {
		t.Errorf("spans after Reset = %+v, want %+v", got, want)
	}
	wantInst := []Instant{
		{Track: "cart-0", Name: "dock", At: 2, Args: []KV{x}},
		{Track: "cart-0", Name: "dock", At: 3, Args: []KV{y}},
	}
	if got := l.Instants(); !reflect.DeepEqual(got, wantInst) {
		t.Errorf("instants after Reset = %+v, want %+v", got, wantInst)
	}
}
