// Package experiments regenerates, as tables, every quantitative claim of
// the paper: the size lower-bound families (Theorems 6.5, 7.6, 8.4), the
// depth results (Proposition 4.5, Lemmas 6.2/7.4/8.2, Lemma 5.1), the
// preservation results (Propositions 7.3 and 8.1), the decision-procedure
// shapes (Theorems 6.6, 7.7, 8.5), and the Appendix A reduction. Each
// experiment has a stable identifier (XP-...) used by cmd/experiments
// (-list prints the index) and bench_test.go; README.md, "Paper results",
// describes the index.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting every cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-form note printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "   paper: %s\n", t.Claim)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for p := len([]rune(cell)); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (cells containing commas
// are quoted).
func (t *Table) CSV(w io.Writer) error {
	quote := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	var b strings.Builder
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = quote(c)
	}
	b.WriteString(strings.Join(cols, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = quote(c)
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
