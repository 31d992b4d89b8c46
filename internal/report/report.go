// Package report renders aligned text tables for the experiment and
// benchmark binaries. It keeps the CLI output deterministic and easy to
// diff between runs.
package report

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{Header: header}
}

// Add appends a row; values are stringified with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = formatDuration(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, width[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func pad(s string, w int) string {
	// Account for multi-byte runes (µ, ✓ …) so columns stay aligned.
	n := len([]rune(s))
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// String renders to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Section prints a titled separator, used between experiments.
func Section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// Timed runs f and returns its wall-clock duration.
func Timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}
