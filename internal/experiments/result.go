package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/metrics"
)

// Result is what an experiment measured: the banner, its tables with the
// cells still raw values, and the note lines printed around them.
type Result struct {
	ID    string `json:"id"`
	Paper string `json:"paper"`
	Desc  string `json:"desc"`
	// Head prints between the banner and the first table, Foot after the
	// last one.
	Head   []string `json:"head,omitempty"`
	Tables []Table  `json:"tables"`
	Foot   []string `json:"foot,omitempty"`
}

// Table is one table of a Result.
type Table struct {
	// Title prints as "-- title --" above the table; empty prints nothing.
	Title   string   `json:"title,omitempty"`
	Columns []Column `json:"columns"`
	// Rows holds one cell per column: a float64, time.Duration or integer
	// as measured, or a string that prints as it is (a label, "n/a").
	Rows [][]any `json:"rows"`
}

// Column names a table column and says how its cells print.
type Column struct {
	Name string `json:"name"`
	// Format is the fmt verb for the column's non-string cells ("%.3f");
	// empty is metrics.Table's default (%.2f floats, scaled durations).
	Format string `json:"format,omitempty"`
}

// columns declares a table's columns, each "name" or "name|format".
func columns(specs ...string) []Column {
	cols := make([]Column, len(specs))
	for i, spec := range specs {
		cols[i].Name, cols[i].Format, _ = strings.Cut(spec, "|")
	}
	return cols
}

// Render prints a Result the way grouting-bench shows it.
func Render(w io.Writer, r Result) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (%s): %s ==\n", r.ID, r.Paper, r.Desc)
	lines := func(ls []string) {
		for _, l := range ls {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	lines(r.Head)
	for _, t := range r.Tables {
		if t.Title != "" {
			fmt.Fprintf(&b, "-- %s --\n", t.Title)
		}
		names := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			names[i] = c.Name
		}
		mt := metrics.NewTable(names...)
		for _, row := range t.Rows {
			cells := make([]any, len(row))
			for i, c := range row {
				if _, text := c.(string); !text && t.Columns[i].Format != "" {
					c = fmt.Sprintf(t.Columns[i].Format, c)
				}
				cells[i] = c
			}
			mt.AddRow(cells...)
		}
		b.WriteString(mt.String())
	}
	lines(r.Foot)
	_, err := io.WriteString(w, b.String())
	return err
}
