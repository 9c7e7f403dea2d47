package telemetry

import (
	"strconv"
	"unicode/utf8"
)

// Prometheus text-exposition exporter (version 0.0.4 of the format): the
// payload internal/controlplane serves for its metrics verb. Output is
// byte-deterministic: snapshots are already name-sorted, and floats are
// formatted with strconv's shortest round-trip representation.

// appendPromName appends name sanitised into the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*; every illegal rune becomes '_'.
func appendPromName(dst []byte, name string) []byte {
	for i := 0; i < len(name); {
		c := name[i]
		if c >= utf8.RuneSelf {
			_, size := utf8.DecodeRuneInString(name[i:])
			dst = append(dst, '_')
			i += size
			continue
		}
		if c == '_' || c == ':' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9') {
			dst = append(dst, c)
		} else {
			dst = append(dst, '_')
		}
		i++
	}
	return dst
}

// appendPromFloat formats a value the way Prometheus clients expect.
func appendPromFloat(dst []byte, v float64) []byte { return strconv.AppendFloat(dst, v, 'g', -1, 64) }

// appendPromSample appends one "name[suffix] value" line; the name is
// sanitised and the suffix written as is.
func appendPromSample(dst []byte, name, suffix string, v float64) []byte {
	dst = appendPromName(dst, name)
	dst = append(dst, suffix...)
	dst = append(dst, ' ')
	dst = appendPromFloat(dst, v)
	dst = append(dst, '\n')
	return dst
}

// appendPromType appends a metric's "# TYPE name kind" line.
func appendPromType(dst []byte, name, kind string) []byte {
	dst = append(dst, "# TYPE "...)
	dst = appendPromName(dst, name)
	dst = append(dst, ' ')
	dst = append(dst, kind...)
	dst = append(dst, '\n')
	return dst
}

// appendPromCount appends one "name[suffix] count" line.
func appendPromCount(dst []byte, name, suffix string, n uint64) []byte {
	dst = appendPromName(dst, name)
	dst = append(dst, suffix...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, n, 10)
	dst = append(dst, '\n')
	return dst
}

// PrometheusText renders a snapshot in the Prometheus text exposition
// format: one TYPE line per metric, histograms expanded into cumulative
// _bucket series with the +Inf bucket, plus _sum and _count. It appends
// every line to one buffer and converts it to a string once.
func PrometheusText(s Snapshot) string {
	var b []byte
	for _, c := range s.Counters {
		b = appendPromType(b, c.Name, "counter")
		b = appendPromSample(b, c.Name, "", c.Value)
	}
	for _, g := range s.Gauges {
		b = appendPromType(b, g.Name, "gauge")
		b = appendPromSample(b, g.Name, "", g.Value)
	}
	for _, h := range s.Histograms {
		b = appendPromType(b, h.Name, "histogram")
		for _, bk := range h.Buckets {
			b = appendPromName(b, h.Name)
			b = append(b, `_bucket{le="`...)
			b = appendPromFloat(b, bk.UpperBound)
			b = append(b, `"} `...)
			b = strconv.AppendUint(b, bk.Count, 10)
			b = append(b, '\n')
		}
		b = appendPromCount(b, h.Name, `_bucket{le="+Inf"}`, h.Count)
		b = appendPromSample(b, h.Name, "_sum", h.Sum)
		b = appendPromCount(b, h.Name, "_count", h.Count)
	}
	return string(b)
}
