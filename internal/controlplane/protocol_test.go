package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dhlsys"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// jsonFrame is the reference encoding: what json.Encoder writes for v.
func jsonFrame(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// floatCases are the floats whose encoding is easiest to get wrong: the
// signed zeros, both sides of encoding/json's 'f'/'e' switch at 1e-6 and
// 1e21, exponents it shortens (e-07 → e-7) or leaves alone, the extremes,
// and the non-finite values only the fallback may see.
var floatCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 8.6, 1e9, 4096, 2.5e-7, -2.5e-7,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
	1e-7, 1e-9, 1e-10, 1e-100, 1e-300, 1e22, 1e100, 1e300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// randFloat draws from floatCases or from uniformly random bits, which
// cover every exponent and, now and then, a NaN or infinity.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return floatCases[rng.Intn(len(floatCases))]
	case 1:
		return 0
	case 2:
		return float64(rng.Intn(1<<20)) * math.Pow(10, float64(rng.Intn(30)-15))
	default:
		return math.Float64frombits(rng.Uint64())
	}
}

// randString draws a string that is plain ASCII most of the time, and
// otherwise carries something json.Encoder escapes or rewrites: quotes,
// backslashes, control bytes, HTML characters, non-ASCII and invalid
// UTF-8.
func randString(rng *rand.Rand, plainSet []string) string {
	if rng.Intn(4) > 0 {
		return plainSet[rng.Intn(len(plainSet))]
	}
	odd := []string{`"`, `\`, "\n", "\x00", "<", ">", "&", "\x7f", "é", "\xff", "\u2028", " ", "a", "Z", ":"}
	var b strings.Builder
	for i := rng.Intn(6); i >= 0; i-- {
		b.WriteString(odd[rng.Intn(len(odd))])
	}
	return b.String()
}

func randCart(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return []int{math.MaxInt, math.MinInt, -1, 1}[rng.Intn(4)]
	case 2:
		return rng.Intn(64)
	default:
		return int(rng.Uint64())
	}
}

// checkAppend holds an Append* result against the reference frame: the
// same bytes after an untouched prefix, or, where encoding/json fails,
// an error and dst unchanged.
func checkAppend(t *testing.T, v any, got []byte, gotErr error, prefix []byte) {
	t.Helper()
	want, wantErr := jsonFrame(v)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%+v: error %v, encoding/json error %v", v, gotErr, wantErr)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("%+v: prefix overwritten: %q", v, got)
	}
	if gotErr != nil {
		if len(got) != len(prefix) {
			t.Fatalf("%+v: failed encode left %q", v, got[len(prefix):])
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%+v:\n got  %q\n want %q", v, got[len(prefix):], want)
	}
}

// TestAppendRequestMatchesEncodingJSON: for seeded random requests,
// AppendRequest writes exactly json.Encoder's bytes, and the canonical
// parser reads back every request with an Op constant, as encoding/json
// does (-0 bytes, omitted, reads back as 0).
func TestAppendRequestMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	opNames := []string{"open", "close", "read", "write", "status", "metrics", "teleport", ""}
	prefix := []byte("prefix:")
	canonical := 0
	for i := 0; i < 50000; i++ {
		req := Request{Op: Op(randString(rng, opNames)), Cart: randCart(rng), Bytes: randFloat(rng)}
		got, err := AppendRequest(append([]byte(nil), prefix...), req)
		checkAppend(t, req, got, err, prefix)
		if err != nil {
			continue
		}
		frame := got[len(prefix):]
		back, ok := parseRequest(frame)
		if isOp(req.Op) {
			canonical++
			want, err := decodeRequestJSON(frame)
			if err != nil || !ok || !sameRequest(back, want) || back.Cart != req.Cart ||
				(req.Bytes != 0 && math.Float64bits(back.Bytes) != math.Float64bits(req.Bytes)) {
				t.Fatalf("%+v: frame %q parses back to %+v (canonical %v), encoding/json gives %+v (%v)", req, frame, back, ok, want, err)
			}
		} else if ok {
			t.Fatalf("%+v: non-constant op parsed canonically from %q", req, frame)
		}
	}
	if canonical < 10000 {
		t.Fatalf("only %d canonical requests drawn", canonical)
	}
}

func isOp(op Op) bool {
	for _, o := range ops {
		if op == o {
			return true
		}
	}
	return false
}

// randStats draws a StatsJSON whose every field, the omitempty ones
// included, is zero half the time.
func randStats(rng *rand.Rand) *StatsJSON {
	n := func() int {
		if rng.Intn(2) == 0 {
			return 0
		}
		return randCart(rng)
	}
	f := func() float64 {
		if rng.Intn(2) == 0 {
			return 0
		}
		return randFloat(rng)
	}
	return &StatsJSON{
		Launches: n(), DockOps: n(), EnergyJ: f(), BytesRead: f(), BytesWritten: f(),
		FailuresSeen: n(), Denied: n(), Queued: n(),
		DegradedLaunches: n(), DegradedReads: n(), DegradedBytes: f(), Stalls: n(),
		StallTimeS: f(), Reroutes: n(), Timeouts: n(), Backoffs: n(), BackoffWaitS: f(),
		FaultsInjected: n(), DowntimeS: f(), Availability: f(),
	}
}

// randLen draws a section length: -1 for nil, 0 for empty, or 1–4.
func randLen(rng *rand.Rand) int { return rng.Intn(6) - 1 }

// randSnapshot draws a snapshot with nil, empty and filled sections and
// buckets, names that are plain most of the time, and random floats.
func randSnapshot(rng *rand.Rand) *telemetry.Snapshot {
	names := []string{"dhl_launches_total", "dhl_sim_time_seconds", "dhl_io_seconds", "ns:sub", ""}
	var m telemetry.Snapshot
	if n := randLen(rng); n >= 0 {
		m.Counters = make([]telemetry.CounterPoint, n)
		for i := range m.Counters {
			m.Counters[i] = telemetry.CounterPoint{Name: randString(rng, names), Value: randFloat(rng)}
		}
	}
	if n := randLen(rng); n >= 0 {
		m.Gauges = make([]telemetry.GaugePoint, n)
		for i := range m.Gauges {
			m.Gauges[i] = telemetry.GaugePoint{Name: randString(rng, names), Value: randFloat(rng)}
		}
	}
	if n := randLen(rng); n >= 0 {
		m.Histograms = make([]telemetry.HistogramPoint, n)
		for i := range m.Histograms {
			h := telemetry.HistogramPoint{Name: randString(rng, names), Sum: randFloat(rng), Count: rng.Uint64() >> rng.Intn(64)}
			if nb := randLen(rng); nb >= 0 {
				h.Buckets = make([]telemetry.BucketPoint, nb)
				for j := range h.Buckets {
					h.Buckets[j] = telemetry.BucketPoint{UpperBound: randFloat(rng), Count: rng.Uint64() >> rng.Intn(64)}
				}
			}
			m.Histograms[i] = h
		}
	}
	return &m
}

// randText draws a metrics text: empty, a real exposition line, or up
// to 40 random bytes over 0x00–0x7f with now and then a non-ASCII byte,
// a two-byte rune or U+2028.
func randText(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return ""
	case 1:
		return `# TYPE dhl_io_seconds histogram` + "\n" + `dhl_io_seconds_bucket{le="+Inf"} 3` + "\n"
	}
	var b []byte
	for i := rng.Intn(41); i > 0; i-- {
		switch rng.Intn(120) {
		case 0:
			b = append(b, byte(0x80+rng.Intn(0x80)))
		case 1:
			b = append(b, "é"...)
		case 2:
			b = append(b, "\u2028"...)
		default:
			b = append(b, byte(rng.Intn(0x80)))
		}
	}
	return string(b)
}

// canonicalReply reports whether AppendResponse writes resp by hand:
// plain error, code and metric names, and ASCII text. (A reply with a
// non-finite float fails in either path.)
func canonicalReply(resp Response) bool {
	if !plain(resp.Error) || !plain(resp.Code) {
		return false
	}
	for i := 0; i < len(resp.Text); i++ {
		if resp.Text[i] >= 0x80 {
			return false
		}
	}
	if m := resp.Metrics; m != nil {
		for _, c := range m.Counters {
			if !plain(c.Name) {
				return false
			}
		}
		for _, g := range m.Gauges {
			if !plain(g.Name) {
				return false
			}
		}
		for _, h := range m.Histograms {
			if !plain(h.Name) {
				return false
			}
		}
	}
	return true
}

// TestAppendResponseMatchesEncodingJSON: for seeded random replies — op
// replies, error and busy replies, stale control replies, status replies
// with random stats and snapshots, and metrics replies with random text —
// AppendResponse writes exactly json.Encoder's bytes, every reply decodes
// back, through DecodeResponse, to what json.Unmarshal yields, and every
// reply written by hand is parsed back by hand.
func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	errs := []string{"", "", "dhlsys: cart 3 busy", "controlplane: overloaded: queue-full"}
	codes := []string{"", "", CodeCartBusy, CodeServerBusy, CodeUnknownCart}
	prefix := []byte("prefix:")
	var canonical, control, texts, fallback int
	for i := 0; i < 100000; i++ {
		resp := Response{
			OK:          rng.Intn(2) == 0,
			Error:       randString(rng, errs),
			Code:        randString(rng, codes),
			RetryAfterS: randFloat(rng),
			Stale:       rng.Intn(2) == 0,
			CacheAgeS:   randFloat(rng),
			SimTime:     randFloat(rng),
			OpSeconds:   randFloat(rng),
		}
		switch rng.Intn(8) {
		case 0:
			resp.Stats = randStats(rng)
			if rng.Intn(3) > 0 {
				resp.Metrics = randSnapshot(rng)
			}
		case 1:
			resp.Metrics = randSnapshot(rng)
		case 2:
			resp.Text = randText(rng)
		}
		got, err := AppendResponse(append([]byte(nil), prefix...), resp)
		checkAppend(t, resp, got, err, prefix)
		if err != nil {
			continue
		}
		line := got[len(prefix):]
		var want Response
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeResponse(line)
		if err != nil || !sameResponse(back, want) {
			t.Fatalf("%q decodes to %+v (%v), json.Unmarshal gives %+v", line, back, err, want)
		}
		fast, ok := parseResponse(line)
		if ok && !sameResponse(fast, want) {
			t.Fatalf("%q parses to %+v, json.Unmarshal gives %+v", line, fast, want)
		}
		if !canonicalReply(resp) {
			fallback++
			continue
		}
		if !ok {
			t.Fatalf("canonical reply %q is not parsed canonically", line)
		}
		switch {
		case resp.Stats != nil || resp.Metrics != nil:
			control++
		case resp.Text != "":
			texts++
		default:
			canonical++
		}
	}
	t.Logf("%d canonical op replies, %d status, %d metrics, %d fallback", canonical, control, texts, fallback)
	if canonical < 10000 || control < 5000 || texts < 2000 || fallback < 5000 {
		t.Fatalf("drew %d canonical op replies, %d status replies, %d metrics replies and %d fallback replies",
			canonical, control, texts, fallback)
	}
}

// TestLongRepliesRoundTripThroughClient: status and metrics replies
// longer than the client's 4 KiB read buffer arrive whole through
// Client.Do, equal to what the server built.
func TestLongRepliesRoundTripThroughClient(t *testing.T) {
	opt := dhlsys.DefaultOptions()
	opt.Telemetry = telemetry.NewSet()
	// The stock registry's status reply is about 2.6 KiB; a deployment
	// with more metrics registered gives a longer one.
	for i := 0; i < 64; i++ {
		opt.Telemetry.Metrics.Counter(fmt.Sprintf("dhl_extra_rack_%02d_bytes_total", i)).Add(float64(i))
	}
	srv, addr := startServer(t, opt)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, req := range []Request{{Op: OpOpen}, {Op: OpWrite, Bytes: 1e9}, {Op: OpRead, Bytes: 1e9}, {Op: OpClose}} {
		if resp, err := c.Do(req); err != nil || !resp.OK {
			t.Fatalf("%+v: %+v, %v", req, resp, err)
		}
	}
	for _, op := range []Op{OpStatus, OpMetrics} {
		got, err := c.Do(Request{Op: op})
		if err != nil || !got.OK {
			t.Fatalf("%s: %+v, %v", op, got, err)
		}
		srv.sem <- struct{}{}
		want := srv.Execute(Request{Op: op})
		srv.release()
		gotFrame, err := jsonFrame(got)
		if err != nil {
			t.Fatal(err)
		}
		wantFrame, err := jsonFrame(want)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantFrame) <= 4096 {
			t.Fatalf("%s reply is %d bytes; the test needs one past bufio's 4096", op, len(wantFrame))
		}
		if !bytes.Equal(gotFrame, wantFrame) {
			t.Errorf("%s reply differs:\n got  %s\n want %s", op, gotFrame, wantFrame)
		}
	}
}

// TestServerRepliesParseCanonically: every status and metrics reply a
// server builds — fresh and cached, with telemetry on (the registry of
// TestLongRepliesRoundTripThroughClient, under a vacuum leak that makes
// the fault-recovery fields non-zero) and off — is written by the
// hand-written encoder and read back by the canonical parser, both as
// encoding/json would.
func TestServerRepliesParseCanonically(t *testing.T) {
	for _, withTelemetry := range []bool{true, false} {
		opt := dhlsys.DefaultOptions()
		opt.Faults = &faults.Script{Faults: []faults.Fault{
			{At: 1, Kind: faults.VacuumLeak, Pressure: 40_000, Duration: 100_000},
		}}
		if withTelemetry {
			opt.Telemetry = telemetry.NewSet()
			for i := 0; i < 64; i++ {
				opt.Telemetry.Metrics.Counter(fmt.Sprintf("dhl_extra_rack_%02d_bytes_total", i)).Add(float64(i))
			}
		}
		sys, err := dhlsys.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServerWithOptions(sys, DefaultServerOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range []Request{{Op: OpOpen}, {Op: OpWrite, Bytes: 1e9}, {Op: OpRead, Bytes: 1e9}} {
			if resp := srv.handle(req); !resp.OK {
				t.Fatalf("%+v: %+v", req, resp)
			}
		}
		for _, op := range []Op{OpStatus, OpMetrics} {
			req := Request{Op: op}
			srv.sem <- struct{}{}
			fresh := srv.Execute(req)
			srv.release()
			cached, _ := srv.Cached(req)
			for _, resp := range []Response{fresh, cached} {
				line, err := AppendResponse(nil, resp)
				checkAppend(t, resp, line, err, nil)
				fast, ok := parseResponse(line)
				var want Response
				if err := json.Unmarshal(line, &want); err != nil {
					t.Fatal(err)
				}
				if !ok || !sameResponse(fast, want) {
					t.Fatalf("telemetry=%v %s: %q parses to %+v (canonical %v), json.Unmarshal gives %+v",
						withTelemetry, op, line, fast, ok, want)
				}
				if withTelemetry && op == OpStatus && (resp.Metrics == nil || resp.Stats.DegradedLaunches == 0) {
					t.Fatalf("status reply lacks metrics or degraded launches: %+v", resp)
				}
			}
		}
	}
}

// TestFreshAndCachedControlRepliesAgree: on an idle server, the status
// and metrics replies built for a request holding the simulation and the
// ones served from the snapshot cache encode to the same bytes, apart
// from the cached reply's stale and cache_age_s fields. With telemetry
// off, both paths give the same no-telemetry metrics error.
func TestFreshAndCachedControlRepliesAgree(t *testing.T) {
	for _, withTelemetry := range []bool{true, false} {
		opt := dhlsys.DefaultOptions()
		if withTelemetry {
			opt.Telemetry = telemetry.NewSet()
		}
		sys, err := dhlsys.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServerWithOptions(sys, DefaultServerOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range []Request{{Op: OpOpen}, {Op: OpWrite, Bytes: 1e9}, {Op: OpRead, Bytes: 1e9}} {
			if resp := srv.handle(req); !resp.OK {
				t.Fatalf("%+v: %+v", req, resp)
			}
		}
		for _, op := range []Op{OpStatus, OpMetrics} {
			req := Request{Op: op}
			srv.sem <- struct{}{}
			fresh := srv.Execute(req)
			srv.release()
			cached, ok := srv.Cached(req)
			if !ok {
				t.Fatalf("telemetry=%v %s: no cached reply after three requests", withTelemetry, op)
			}
			if cached.OK && !cached.Stale {
				t.Errorf("telemetry=%v %s: cached reply not marked stale: %+v", withTelemetry, op, cached)
			}
			cached.Stale, cached.CacheAgeS = false, 0
			freshFrame, err := jsonFrame(fresh)
			if err != nil {
				t.Fatal(err)
			}
			cachedFrame, err := jsonFrame(cached)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(freshFrame, cachedFrame) {
				t.Errorf("telemetry=%v %s: fresh and cached replies differ:\n fresh  %s\n cached %s",
					withTelemetry, op, freshFrame, cachedFrame)
			}
		}
	}
}
