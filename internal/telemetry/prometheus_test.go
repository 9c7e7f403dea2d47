package telemetry_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dhlsys"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// TestPrometheusTextPinned pins PrometheusText's exact bytes by hash:
// names that need sanitising, the floats whose formatting is easiest to
// get wrong, histograms with empty and zero-count buckets, and the
// registry of a rough-day shuttle run. Any change to the output is a
// change to the metrics wire format.
func TestPrometheusTextPinned(t *testing.T) {
	negZero := math.Copysign(0, -1)
	odd := telemetry.Snapshot{
		Counters: []telemetry.CounterPoint{
			{Name: "dhl-launches-total", Value: 0},
			{Name: "9lives", Value: negZero},
			{Name: "héllo_wörld", Value: 1e21},
			{Name: "ns:sub:total", Value: -1e21},
			{Name: "tiny", Value: 1e-7},
			{Name: "", Value: math.NaN()},
		},
		Gauges: []telemetry.GaugePoint{
			{Name: "up", Value: math.Inf(1)},
			{Name: "down", Value: math.Inf(-1)},
			{Name: "a b\tc", Value: -2.5e-7},
			{Name: "_ok:1", Value: 123456789.125},
		},
		Histograms: []telemetry.HistogramPoint{
			{Name: "no_buckets", Sum: 0, Count: 0},
			{Name: "empty-bucket", Buckets: []telemetry.BucketPoint{{UpperBound: 1e-7, Count: 0}, {UpperBound: 1, Count: 0}, {UpperBound: math.Inf(1), Count: 3}}, Sum: 4.5, Count: 3},
			{Name: "0s", Buckets: []telemetry.BucketPoint{}, Sum: negZero, Count: math.MaxUint64},
		},
	}

	opt := dhlsys.DefaultOptions()
	opt.NumCarts = 4
	opt.Seed = 1337
	opt.Telemetry = telemetry.NewSet()
	script, err := faults.ScenarioDims(faults.ScenarioRoughDay, 1337, 120, opt.FaultDims())
	if err != nil {
		t.Fatal(err)
	}
	opt.Faults = &script
	sys, err := dhlsys.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Shuttle(dhlsys.ShuttleOptions{Dataset: 10 * 256 * units.TB, ReadAtEndpoint: true}); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		snap telemetry.Snapshot
		want string
	}{
		{"empty", telemetry.Snapshot{}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"odd", odd, "7bacab89d357bd2e4b5ee130509861520aec6fbf2aec934264e930133f4b0019"},
		{"rough-day", sys.MetricsSnapshot(), "59861d98b19572aaa69dd44bcd02ffd796fabd2e225fe0fe0b3c0ea6caac658f"},
	} {
		text := telemetry.PrometheusText(c.snap)
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: PrometheusText hashes to %s, want %s:\n%s", c.name, got, c.want, text)
		}
	}
}
