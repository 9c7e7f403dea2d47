package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestDecimalDataUnits(t *testing.T) {
	if 29*PB/TB != 29000 {
		t.Fatalf("29PB = %v TB, want 29000", 29*PB/TB)
	}
	if TB != 1e12 {
		t.Fatalf("TB = %v, want 1e12", float64(TB))
	}
	if GiB != 1073741824 {
		t.Fatalf("GiB = %v", float64(GiB))
	}
}

func TestPaper580kSeconds(t *testing.T) {
	// §II-C: 29 PB over 400 Gb/s takes 580,000 s ≈ 6.71 days.
	rate := (400 * Gbps).BytesPerSecond()
	tt := rate.TransferTime(29 * PB)
	if tt != 580000 {
		t.Fatalf("29PB @ 400Gb/s = %v s, want 580000", float64(tt))
	}
	if !almostEq(tt.Days(), 6.71, 0.01) {
		t.Fatalf("days = %v, want ≈6.71", tt.Days())
	}
}

func TestTransferTimeEdgeCases(t *testing.T) {
	if got := BytesPerSecond(0).TransferTime(GB); !math.IsInf(float64(got), 1) {
		t.Fatalf("zero rate: got %v, want +Inf", got)
	}
	if got := GBps.TransferTime(0); got != 0 {
		t.Fatalf("zero size: got %v, want 0", got)
	}
	if got := GBps.TransferTime(-5 * GB); got != 0 {
		t.Fatalf("negative size: got %v, want 0", got)
	}
}

func TestEnergyPowerRoundTrip(t *testing.T) {
	e := Energy(24*Watt, 580000*Second)
	if !almostEq(e.MJ(), 13.92, 1e-9) {
		t.Fatalf("A0 energy = %v MJ, want 13.92", e.MJ())
	}
	p := Power(e, 580000*Second)
	if !almostEq(float64(p), 24, 1e-12) {
		t.Fatalf("power round trip = %v, want 24", float64(p))
	}
	if Power(Joule, 0) != 0 {
		t.Fatal("Power with zero duration should be 0")
	}
}

func TestEnergyPowerProperty(t *testing.T) {
	f := func(w float64, tRaw float64) bool {
		tt := math.Abs(math.Mod(tRaw, 1e6)) + 1e-3
		ww := math.Mod(w, 1e6)
		e := Energy(Watts(ww), Seconds(tt))
		back := Power(e, Seconds(tt))
		return almostEq(float64(back), ww, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGBPerJoule(t *testing.T) {
	// Table VI: 256 TB moved for 15.04 kJ ≈ 17 GB/J.
	got := GBPerJoule(256*TB, 15040*Joule)
	if !almostEq(got, 17.02, 0.001) {
		t.Fatalf("GB/J = %v, want ≈17.02", got)
	}
	if !math.IsInf(GBPerJoule(GB, 0), 1) {
		t.Fatal("zero energy should give +Inf efficiency")
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{29 * PB, "29PB"},
		{256 * TB, "256TB"},
		{360 * GB, "360GB"},
		{5 * MB, "5MB"},
		{2 * KB, "2KB"},
		{12 * Byte, "12B"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestSecondsString(t *testing.T) {
	cases := []struct {
		in   Seconds
		want string
	}{
		{580000, "6.71d"},
		{7200, "2h"},
		{90, "1.5min"},
		{8.6, "8.6s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestJoulesWattsString(t *testing.T) {
	if got := (15040 * Joule).String(); got != "15kJ" {
		t.Errorf("Joules.String() = %q, want 15kJ", got)
	}
	if got := (13.92 * Megajoule).String(); got != "13.9MJ" {
		t.Errorf("Joules.String() = %q, want 13.9MJ", got)
	}
	if got := (75200 * Watt).String(); got != "75.2kW" {
		t.Errorf("Watts.String() = %q, want 75.2kW", got)
	}
	if got := (24 * Watt).String(); got != "24W" {
		t.Errorf("Watts.String() = %q, want 24W", got)
	}
	if got := (3 * Megawatt).String(); got != "3MW" {
		t.Errorf("Watts.String() = %q, want 3MW", got)
	}
}

func TestRateStrings(t *testing.T) {
	if got := (400 * Gbps).String(); got != "400Gb/s" {
		t.Errorf("got %q", got)
	}
	if got := (3.8 * Tbps).String(); got != "3.8Tb/s" {
		t.Errorf("got %q", got)
	}
	if got := (30 * TBps).String(); got != "30TB/s" {
		t.Errorf("got %q", got)
	}
	if got := (50 * GBps).String(); got != "50GB/s" {
		t.Errorf("got %q", got)
	}
	if got := (500 * MBps).String(); got != "500MB/s" {
		t.Errorf("got %q", got)
	}
}

func TestGramsString(t *testing.T) {
	if got := (282 * Gram).String(); got != "282g" {
		t.Errorf("got %q", got)
	}
	if got := (1.5 * Kilogram).String(); got != "1.5kg" {
		t.Errorf("got %q", got)
	}
	if (282 * Gram).Kg() != 0.282 {
		t.Errorf("Kg() = %v", (282 * Gram).Kg())
	}
}

func TestUSDString(t *testing.T) {
	cases := []struct {
		in   USD
		want string
	}{
		{9525, "$9,525"},
		{21842, "$21,842"},
		{733, "$733"},
		{0, "$0"},
		{-14569, "-$14,569"},
		{1234567, "$1,234,567"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("USD(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestRatioString(t *testing.T) {
	if got := Ratio(376.07).String(); got != "376.1x" {
		t.Errorf("got %q", got)
	}
}

func TestBitsConversion(t *testing.T) {
	r := 400 * Gbps
	if r.BytesPerSecond() != 50*GBps {
		t.Fatalf("400Gb/s = %v", r.BytesPerSecond())
	}
}

func TestUnitAccessors(t *testing.T) {
	b := 1500 * GB
	if b.TBf() != 1.5 {
		t.Errorf("TBf = %v", b.TBf())
	}
	if b.GBf() != 1500 {
		t.Errorf("GBf = %v", b.GBf())
	}
	j := 2500 * Joule
	if j.KJ() != 2.5 {
		t.Errorf("KJ = %v", j.KJ())
	}
	w := 1750 * Watt
	if w.KW() != 1.75 {
		t.Errorf("KW = %v", w.KW())
	}
	s := 7200 * Second
	if s.Hours() != 2 {
		t.Errorf("Hours = %v", s.Hours())
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]Bytes{
		"29PB":   29 * PB,
		"256 TB": 256 * TB,
		"360GB":  360 * GB,
		"512GiB": 512 * GiB,
		"5.67MB": 5.67 * MB,
		"1e15":   1e15,
		"42B":    42,
		" 8 TB ": 8 * TB,
		"0.5KB":  500,
		"3KiB":   3 * KiB,
		"2MiB":   2 * MiB,
		"1TiB":   TiB,
		"0PB":    0,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseBytes(%q) = %v, want %v", in, float64(got), float64(want))
		}
	}
	for _, bad := range []string{"", "PB", "abcTB", "-5GB", "-7", "12XB x"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) should fail", bad)
		}
	}
}

func TestParseBytesRoundTripProperty(t *testing.T) {
	f := func(raw uint32) bool {
		b := Bytes(raw%100000) * GB
		parsed, err := ParseBytes(b.String())
		if err != nil {
			return false
		}
		// String() keeps 3 significant digits; allow that rounding.
		return almostEq(float64(parsed), float64(b), 0.005)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
