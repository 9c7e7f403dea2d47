package telemetry

import (
	"strconv"
	"strings"
)

// Prometheus text-exposition exporter (version 0.0.4 of the format): the
// payload internal/controlplane serves for its metrics verb. Output is
// byte-deterministic: snapshots are already name-sorted, and floats are
// formatted with strconv's shortest round-trip representation.

// promName sanitises a metric name into the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*; every illegal rune becomes '_'.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat formats a value the way Prometheus clients expect.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// PrometheusText renders a snapshot in the Prometheus text exposition
// format: one TYPE line per metric, histograms expanded into cumulative
// _bucket series with the +Inf bucket, plus _sum and _count.
func PrometheusText(s Snapshot) string {
	var b strings.Builder
	for _, c := range s.Counters {
		name := promName(c.Name)
		b.WriteString("# TYPE " + name + " counter\n")
		b.WriteString(name + " " + promFloat(c.Value) + "\n")
	}
	for _, g := range s.Gauges {
		name := promName(g.Name)
		b.WriteString("# TYPE " + name + " gauge\n")
		b.WriteString(name + " " + promFloat(g.Value) + "\n")
	}
	for _, h := range s.Histograms {
		name := promName(h.Name)
		b.WriteString("# TYPE " + name + " histogram\n")
		for _, bk := range h.Buckets {
			b.WriteString(name + `_bucket{le="` + promFloat(bk.UpperBound) + `"} ` +
				strconv.FormatUint(bk.Count, 10) + "\n")
		}
		b.WriteString(name + `_bucket{le="+Inf"} ` + strconv.FormatUint(h.Count, 10) + "\n")
		b.WriteString(name + "_sum " + promFloat(h.Sum) + "\n")
		b.WriteString(name + "_count " + strconv.FormatUint(h.Count, 10) + "\n")
	}
	return b.String()
}
