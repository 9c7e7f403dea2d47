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

// TestAppendResponseMatchesEncodingJSON: for seeded random replies — op
// replies, error and busy replies, stale control replies, and status and
// metrics replies that take the fallback — AppendResponse writes exactly
// json.Encoder's bytes, and every reply decodes back, through
// DecodeResponse, to what json.Unmarshal yields.
func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	errs := []string{"", "", "dhlsys: cart 3 busy", "controlplane: overloaded: queue-full"}
	codes := []string{"", "", CodeCartBusy, CodeServerBusy, CodeUnknownCart}
	texts := []string{"", "", "", "# TYPE dhl_launches_total counter\ndhl_launches_total 3\n"}
	snap := telemetry.Snapshot{Counters: []telemetry.CounterPoint{{Name: "dhl_launches_total", Value: 3}}}
	prefix := []byte("prefix:")
	canonical := 0
	for i := 0; i < 50000; i++ {
		resp := Response{
			OK:          rng.Intn(2) == 0,
			Error:       randString(rng, errs),
			Code:        randString(rng, codes),
			RetryAfterS: randFloat(rng),
			Stale:       rng.Intn(2) == 0,
			CacheAgeS:   randFloat(rng),
			SimTime:     randFloat(rng),
			OpSeconds:   randFloat(rng),
			Text:        texts[rng.Intn(len(texts))],
		}
		switch rng.Intn(8) {
		case 0:
			resp.Stats = &StatsJSON{Launches: rng.Intn(100), EnergyJ: randFloat(rng), Availability: 1}
		case 1:
			resp.Metrics = &snap
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
		if resp.Stats == nil && resp.Metrics == nil && resp.Text == "" && plain(resp.Error) && plain(resp.Code) {
			canonical++
			if _, ok := parseResponse(line); !ok {
				t.Fatalf("op reply %q is not parsed canonically", line)
			}
		}
	}
	if canonical < 10000 {
		t.Fatalf("only %d canonical replies drawn", canonical)
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
			if resp := srv.handle(1, req); !resp.OK {
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
