// Package report renders experiment results as aligned text tables,
// Markdown, CSV, and ASCII line charts / histograms, so every table and
// figure of the paper can be regenerated as terminal output and as
// machine-readable data.
package report

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-oriented text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; it panics if the cell count does not match the
// header count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("report: row has %d cells for %d headers", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// widths returns the rendered width of each column.
func (t *Table) widths() []int {
	w := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		w[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if l := len([]rune(c)); l > w[i] {
				w[i] = l
			}
		}
	}
	return w
}

// WriteText renders the table as aligned plain text.
func (t *Table) WriteText(w io.Writer) error {
	widths := t.widths()
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.Headers); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown renders the table as GitHub-flavored Markdown.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "### %s\n\n", t.Title); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(t.Headers, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | ")); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as RFC-4180-ish CSV (quoting cells that need
// it).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = csvEscape(c)
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.Join(out, ","))
		return err
	}
	if err := writeRow(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table as text.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.WriteText(&b); err != nil {
		// strings.Builder never errors; keep the method total anyway.
		return err.Error()
	}
	return b.String()
}

func pad(s string, width int) string {
	if l := len([]rune(s)); l < width {
		return s + strings.Repeat(" ", width-l)
	}
	return s
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// ErrEmptySeries is returned by chart renderers given no data.
var ErrEmptySeries = errors.New("report: empty series")
