package units

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseBytes parses a human-readable data size like "29PB", "256 TB",
// "360GB", "512GiB" or "1e15" (bare numbers are bytes). Decimal prefixes
// are powers of 1000; binary prefixes (KiB…PiB) are powers of 1024.
func ParseBytes(s string) (Bytes, error) {
	in := strings.TrimSpace(s)
	if in == "" {
		return 0, fmt.Errorf("units: empty size")
	}
	suffixes := []struct {
		suffix string
		unit   Bytes
	}{
		// Longest suffixes first so "PiB" wins over "B".
		{"KiB", KiB}, {"MiB", MiB}, {"GiB", GiB}, {"TiB", TiB}, {"PiB", PiB},
		{"KB", KB}, {"MB", MB}, {"GB", GB}, {"TB", TB}, {"PB", PB},
		{"B", Byte},
	}
	for _, c := range suffixes {
		if strings.HasSuffix(in, c.suffix) {
			num := strings.TrimSpace(strings.TrimSuffix(in, c.suffix))
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("units: bad size %q: %w", s, err)
			}
			if v < 0 {
				return 0, fmt.Errorf("units: negative size %q", s)
			}
			return Bytes(v) * c.unit, nil
		}
	}
	v, err := strconv.ParseFloat(in, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad size %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("units: negative size %q", s)
	}
	return Bytes(v), nil
}
