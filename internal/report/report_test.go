package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Table VI", "Speed", "Energy (kJ)", "Speedup")
	tb.AddRow(200, 15.04, "295.1x")
	tb.AddRow(100, 3.76, "229.6x")
	if len(tb.rows) != 2 {
		t.Fatalf("rows = %d", len(tb.rows))
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table VI", "Speed", "Energy (kJ)", "15.04", "295.1x", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns aligned: header line and first data line have same prefix
	// width before second column.
	lines := strings.Split(out, "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines:\n%s", out)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(42.0)
	tb.AddRow(3.14159)
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "42\n") && !strings.Contains(b.String(), "42 ") {
		t.Errorf("integral float should render without decimals:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "3.142") {
		t.Errorf("float should render with 4 significant digits:\n%s", b.String())
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []string{"power_w", "time_s"}, [][]string{
		{"1750", "1350"},
		{"3500", "700"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "power_w,time_s\n1750,1350\n3500,700\n"
	if b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
}

func TestPlotRender(t *testing.T) {
	p := Plot{Title: "Figure 6", XLabel: "power (W)", YLabel: "time (s)", Width: 40, Height: 10}
	p.Add(Series{Name: "DHL", X: []float64{1750, 3500, 7000}, Y: []float64{1350, 700, 360}})
	p.Add(Series{Name: "A0", X: []float64{24, 240, 2400}, Y: []float64{580000, 58000, 5800}})
	var b strings.Builder
	if err := p.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Figure 6", "power (W)", "time (s)", "DHL", "A0"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q", want)
		}
	}
	// Markers assigned automatically and present in the grid.
	if !strings.ContainsRune(out, 'o') || !strings.ContainsRune(out, 'x') {
		t.Error("plot markers missing")
	}
}

func TestPlotErrors(t *testing.T) {
	empty := Plot{}
	var b strings.Builder
	if err := empty.Render(&b); err == nil {
		t.Error("empty plot must error")
	}
	neg := Plot{}
	neg.Add(Series{Name: "bad", X: []float64{-1}, Y: []float64{5}})
	if err := neg.Render(&b); err == nil {
		t.Error("non-positive data must error on log plot")
	}
}

func TestPlotDegenerateRange(t *testing.T) {
	p := Plot{Width: 30, Height: 8}
	p.Add(Series{Name: "point", X: []float64{10}, Y: []float64{10}})
	var b strings.Builder
	if err := p.Render(&b); err != nil {
		t.Fatalf("single point plot should render: %v", err)
	}
}
