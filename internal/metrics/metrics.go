// Package metrics provides the small statistics and formatting helpers the
// experiment harnesses share: duration series with percentiles, and
// aligned-table rendering for paper-style output rows.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Durations accumulates a series of time.Durations and answers order
// statistics. The zero value is ready to use.
type Durations struct {
	vals   []time.Duration
	sorted bool
}

// Add appends one observation.
func (d *Durations) Add(v time.Duration) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

// Sum returns the total of all observations.
func (d *Durations) Sum() time.Duration {
	var s time.Duration
	for _, v := range d.vals {
		s += v
	}
	return s
}

// Mean returns the average (0 when empty).
func (d *Durations) Mean() time.Duration {
	if len(d.vals) == 0 {
		return 0
	}
	return d.Sum() / time.Duration(len(d.vals))
}

// Percentile returns the p-quantile (p in [0,1]) using nearest-rank; 0 when
// empty.
func (d *Durations) Percentile(p float64) time.Duration {
	if len(d.vals) == 0 {
		return 0
	}
	d.sort()
	if p <= 0 {
		return d.vals[0]
	}
	if p >= 1 {
		return d.vals[len(d.vals)-1]
	}
	i := int(p*float64(len(d.vals))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d.vals) {
		i = len(d.vals) - 1
	}
	return d.vals[i]
}

func (d *Durations) sort() {
	if !d.sorted {
		sort.Slice(d.vals, func(i, j int) bool { return d.vals[i] < d.vals[j] })
		d.sorted = true
	}
}

// Table renders aligned experiment output. Rows are added cell-wise and the
// final String pads every column to its widest cell — good enough for
// paper-style result tables on a terminal.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = fmtDuration(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func fmtDuration(v time.Duration) string {
	switch {
	case v >= time.Second:
		return fmt.Sprintf("%.2fs", v.Seconds())
	case v >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(v)/float64(time.Millisecond))
	case v >= time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(v)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", v.Nanoseconds())
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for pad := len(c); pad < widths[i]; pad++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
