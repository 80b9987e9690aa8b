// Package bench provides the workload generators and measurement helpers
// the experiment harness uses: latency histograms with percentiles, a
// request generator driving HTTP endpoints over the simulated network, and
// table formatting for experiment output.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Histogram accumulates duration samples and answers percentile queries.
type Histogram struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(d time.Duration) {
	h.samples = append(h.samples, d)
	h.sorted = false
}

// Percentile returns the q-quantile (0 < q <= 1) using nearest-rank.
func (h *Histogram) Percentile(q float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	rank := int(q*float64(len(h.samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(h.samples) {
		rank = len(h.samples) - 1
	}
	return h.samples[rank]
}

// Table renders aligned experiment output.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable builds a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		case time.Duration:
			row[i] = x.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Write(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
