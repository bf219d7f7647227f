// Package benchfmt formats experiment results as aligned text tables
// for cmd/hanabench and EXPERIMENTS.md.
package benchfmt

import (
	"fmt"
	"strings"
	"time"
)

// Report is one experiment's result: a headline, the paper claim
// being reproduced, a table, and free-form notes.
type Report struct {
	ID     string
	Title  string
	Claim  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddNote appends a note line.
func (r *Report) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Claim != "" {
		fmt.Fprintf(&b, "paper claim: %s\n", r.Claim)
	}
	b.WriteString(Table(r.Header, r.Rows))
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Table renders an aligned text table.
func Table(header []string, rows [][]string) string {
	all := make([][]string, 0, len(rows)+1)
	if header != nil {
		all = append(all, header)
	}
	all = append(all, rows...)
	widths := map[int]int{}
	for _, row := range all {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	if header != nil {
		writeRow(header)
		total := 0
		for i := range header {
			total += widths[i] + 2
		}
		b.WriteString(strings.Repeat("-", total))
		b.WriteByte('\n')
	}
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Rate renders operations per second.
func Rate(n int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	r := float64(n) / d.Seconds()
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.2fM/s", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk/s", r/1e3)
	default:
		return fmt.Sprintf("%.1f/s", r)
	}
}

// Dur renders a duration compactly.
func Dur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}

// Bytes renders a byte count.
func Bytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// PerRow renders bytes per row.
func PerRow(total, rows int) string {
	if rows == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fB/row", float64(total)/float64(rows))
}

// Factor renders a ratio like "12.3x".
func Factor(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", a/b)
}
