package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a printable experiment result: the shared currency between the
// experiment runners and cmd/cgbench.
type Table struct {
	ID     string     `json:"id"` // paper anchor, e.g. "Table 4" or "Figure 8"
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// Report is the machine-readable result of a whole cgbench run
// (cgbench -json): the parameter set and one entry per experiment, in
// execution order. The shape — params, then {name, elapsed_seconds,
// table} — is a stable contract for the tooling that reads it.
type Report struct {
	Params      Params        `json:"params"`
	Experiments []ReportEntry `json:"experiments"`
}

// ReportEntry is one experiment's result inside a Report.
type ReportEntry struct {
	Name           string  `json:"name"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Table          *Table  `json:"table"`
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// secs formats a duration as seconds with adaptive precision.
func secs(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	default:
		return fmt.Sprintf("%.4fs", s)
	}
}

// speedup formats a ratio the way the paper does ("3.35x").
func speedup(baseline, improved time.Duration) string {
	if improved <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(baseline)/float64(improved))
}
