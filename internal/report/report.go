// Package report renders the reproduction's tables and figures: aligned
// ASCII tables for the paper's tables, CSV series for external plotting, and
// a log-log ASCII plot for Figure 6.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// trimFloat renders floats with up to 4 significant decimals, no exponent
// for table-scale magnitudes.
func trimFloat(v float64) string {
	//dhllint:allow floateq -- exact integrality test against Trunc(v) is the point: it picks the %.0f rendering
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return strconv4(v)
}

func strconv4(v float64) string {
	s := fmt.Sprintf("%.4g", v)
	return s
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	total := len(widths) - 1
	if total < 0 {
		total = 0
	}
	for _, wd := range widths {
		total += wd
	}
	total += len(widths) - 1 // double spacing
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, r := range t.rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes headers and rows as CSV.
func WriteCSV(w io.Writer, headers []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(headers); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Series is a named sequence of (x, y) points for plotting.
type Series struct {
	Name   string
	Marker rune
	X, Y   []float64
}

// Plot renders a log-log ASCII scatter of the series onto a width×height
// character grid — the reproduction's stand-in for the paper's Figure 6
// rendering.
type Plot struct {
	Title          string
	XLabel, YLabel string
	Width, Height  int
	Series         []Series
}

// Add appends a series, assigning a marker if none set.
func (p *Plot) Add(s Series) {
	if s.Marker == 0 {
		markers := []rune("ox+*#@%&^~")
		s.Marker = markers[len(p.Series)%len(markers)]
	}
	p.Series = append(p.Series, s)
}

// Render draws the plot.
func (p *Plot) Render(w io.Writer) error {
	width, height := p.Width, p.Height
	if width < 20 {
		width = 72
	}
	if height < 8 {
		height = 24
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range p.Series {
		for i := range s.X {
			if s.X[i] <= 0 || s.Y[i] <= 0 {
				return fmt.Errorf("report: log-log plot needs positive data (series %q)", s.Name)
			}
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return fmt.Errorf("report: plot %q has no data", p.Title)
	}
	//dhllint:allow floateq -- min==max detects a degenerate axis where both came from the same single value
	if minX == maxX {
		maxX = minX * 10
	}
	//dhllint:allow floateq -- min==max detects a degenerate axis where both came from the same single value
	if minY == maxY {
		maxY = minY * 10
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = make([]rune, width)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	lx := func(v float64) float64 { return math.Log(v) }
	for _, s := range p.Series {
		for i := range s.X {
			col := int(math.Round((lx(s.X[i]) - lx(minX)) / (lx(maxX) - lx(minX)) * float64(width-1)))
			row := int(math.Round((lx(s.Y[i]) - lx(minY)) / (lx(maxY) - lx(minY)) * float64(height-1)))
			row = height - 1 - row // y grows upward
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = s.Marker
			}
		}
	}
	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	fmt.Fprintf(&b, "%s (log scale) ↑\n", p.YLabel)
	for _, row := range grid {
		fmt.Fprintf(&b, "|%s\n", string(row))
	}
	fmt.Fprintf(&b, "+%s→ %s (log scale)\n", strings.Repeat("-", width), p.XLabel)
	for _, s := range p.Series {
		fmt.Fprintf(&b, "  %c %s\n", s.Marker, s.Name)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
