package units

// Edge-case coverage for ParseBytes beyond the happy paths in
// units_test.go: error-message content, the decimal-vs-binary prefix
// scale split, and format→parse round trips of specific values.

import (
	"strings"
	"testing"
)

func TestParseBytesPrefixScales(t *testing.T) {
	tests := []struct {
		in   string
		want Bytes
	}{
		// Decimal prefixes are powers of 1000, binary prefixes powers
		// of 1024 — the same digit must land on different byte counts.
		{"1KB", 1e3},
		{"1KiB", 1 << 10},
		{"1GB", 1e9},
		{"1GiB", 1 << 30},
		{"1PB", 1e15},
		{"1PiB", 1 << 50},
		// Longest-suffix match: "MiB" must not parse as "1Mi" + "B".
		{"2MiB", 2 << 20},
		// Bare numbers are bytes, including scientific notation.
		{"1e15", 1e15},
		{"42", 42},
		{"0", 0},
		{"1.5TB", 1.5 * TB},
	}
	for _, tt := range tests {
		got, err := ParseBytes(tt.in)
		if err != nil {
			t.Errorf("ParseBytes(%q): unexpected error %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseBytes(%q) = %v, want %v", tt.in, float64(got), float64(tt.want))
		}
	}
}

func TestParseBytesErrorMessages(t *testing.T) {
	tests := []struct {
		in      string
		errPart string
	}{
		{"", "empty"},
		{"   ", "empty"},
		{"-1GB", "negative"},
		{"-0.5", "negative"},
		{"-3GiB", "negative"},
		{"PB", "bad size"},     // suffix with no number
		{"12XB", "bad size"},   // unknown prefix leaves non-numeric text
		{"1..5TB", "bad size"}, // malformed mantissa
		{"ten GB", "bad size"},
		{"NaNPB", "not finite"},
		{"NaN", "not finite"},
		{"InfPB", "not finite"},
		{"+Inf", "not finite"},
		{"-InfPB", "negative"},
		{"1e300PB", "not finite"}, // finite number, infinite product
	}
	for _, tt := range tests {
		got, err := ParseBytes(tt.in)
		if err == nil {
			t.Errorf("ParseBytes(%q) = %v, want error containing %q", tt.in, float64(got), tt.errPart)
			continue
		}
		if !strings.Contains(err.Error(), tt.errPart) {
			t.Errorf("ParseBytes(%q) error = %q, want it to contain %q", tt.in, err, tt.errPart)
		}
	}
}

// TestParseBytesFormatRoundTrip checks fixed values (the property test in
// units_test.go only exercises whole-GB multiples) survive String() and
// re-parsing within the %.3g rendering precision.
func TestParseBytesFormatRoundTrip(t *testing.T) {
	values := []Bytes{
		0, 1, 999, KB, 1.5 * MB, GB, 29 * PB, 512 * GiB, 4 * TB, 123456789,
	}
	for _, v := range values {
		s := v.String()
		back, err := ParseBytes(s)
		if err != nil {
			t.Errorf("ParseBytes(%q) from %v.String(): %v", s, float64(v), err)
			continue
		}
		if !almostEq(float64(back), float64(v), 5e-3) {
			t.Errorf("round trip %v -> %q -> %v exceeds %%.3g tolerance", float64(v), s, float64(back))
		}
	}
}
