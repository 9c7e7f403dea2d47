package telemetry

import (
	"fmt"
	"strings"
)

// Plain-text summary exporter: the human-facing table cmd/dhlsim prints
// with -metrics. Deterministic like every other export path (snapshots
// are name-sorted; span aggregation walks tracks and names in
// first-appearance order, which recording order fixes).

// SummaryTable renders the snapshot as aligned text: counters and gauges
// as name/value rows, histograms as name/count/sum/mean rows.
func SummaryTable(s Snapshot) string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		w := nameWidth(len("name"), counterNames(s.Counters))
		fmt.Fprintf(&b, "  %-*s %s\n", w, "name", "value")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-*s %g\n", w, c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		w := nameWidth(len("name"), gaugeNames(s.Gauges))
		fmt.Fprintf(&b, "  %-*s %s\n", w, "name", "value")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-*s %g\n", w, g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		w := nameWidth(len("name"), histNames(s.Histograms))
		fmt.Fprintf(&b, "  %-*s %-8s %-14s %s\n", w, "name", "count", "sum", "mean")
		for _, h := range s.Histograms {
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(&b, "  %-*s %-8d %-14.6g %.6g\n", w, h.Name, h.Count, h.Sum, mean)
		}
	}
	return b.String()
}

// SpanSummary aggregates the span log per (track, name): span count and
// total duration, rendered as an aligned table in first-appearance order.
func SpanSummary(l *SpanLog) string {
	if l.Len() == 0 {
		return ""
	}
	type agg struct {
		track, name string
		count       int
		total       float64
	}
	index := make(map[string]int)
	var rows []agg
	l.EachSpan(func(s Span) {
		key := s.Track + "\x00" + s.Name
		i, ok := index[key]
		if !ok {
			i = len(rows)
			index[key] = i
			rows = append(rows, agg{track: s.Track, name: s.Name})
		}
		rows[i].count++
		rows[i].total += float64(s.End - s.Start)
	})
	var b strings.Builder
	b.WriteString("spans:\n")
	tw, nw := len("track"), len("name")
	for _, r := range rows {
		if len(r.track) > tw {
			tw = len(r.track)
		}
		if len(r.name) > nw {
			nw = len(r.name)
		}
	}
	fmt.Fprintf(&b, "  %-*s %-*s %-8s %s\n", tw, "track", nw, "name", "count", "total-s")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-*s %-*s %-8d %.3f\n", tw, r.track, nw, r.name, r.count, r.total)
	}
	if n := l.NumInstants(); n > 0 {
		fmt.Fprintf(&b, "  (+%d instant events)\n", n)
	}
	return b.String()
}

func nameWidth(w int, names []string) int {
	for _, n := range names {
		if len(n) > w {
			w = len(n)
		}
	}
	return w
}

func counterNames(ps []CounterPoint) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

func gaugeNames(ps []GaugePoint) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

func histNames(ps []HistogramPoint) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}
