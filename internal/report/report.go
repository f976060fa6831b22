// Package report renders experiment results as aligned text tables and
// CSV, matching the rows and series of the paper's tables and figures.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"ccatscale/internal/schema"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	// Notes are caveat lines rendered after the rows — context like
	// "converged at 12s" or the fabric's per-link counters that must
	// travel with the numbers they qualify.
	Notes []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// formatFloat renders floats compactly: 3 significant decimals for
// small magnitudes, fewer for large.
func formatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av < 0.01:
		return fmt.Sprintf("%.5f", v)
	case av < 10:
		return fmt.Sprintf("%.3f", v)
	case av < 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
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
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.Headers); err != nil {
		return err
	}
	rules := make([]string, len(t.Headers))
	for i := range rules {
		rules[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rules); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// AddNote appends one caveat line to the table's rendering.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// WriteCSV renders the table as CSV (no quoting needed for the numeric
// content these tables carry; commas in cells are rejected).
func (t *Table) WriteCSV(w io.Writer) error {
	writeLine := func(cells []string) error {
		for _, c := range cells {
			if strings.ContainsAny(c, ",\n\"") {
				return fmt.Errorf("report: cell %q needs CSV quoting, which this writer does not support", c)
			}
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.Join(cells, ","))
		return err
	}
	if err := writeLine(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}

// JSONTable is the versioned JSON rendering of a Table. The
// schema_version field is shared with reproduce manifests and the
// telemetry stream; consumers gate on its major component (see
// internal/schema).
type JSONTable struct {
	SchemaVersion string     `json:"schema_version"`
	Title         string     `json:"title,omitempty"`
	Headers       []string   `json:"headers"`
	Rows          [][]string `json:"rows"`
	Notes         []string   `json:"notes,omitempty"`
}

// WriteJSON renders the table as a versioned JSON document.
func (t *Table) WriteJSON(w io.Writer) error {
	doc := JSONTable{
		SchemaVersion: schema.Version,
		Title:         t.Title,
		Headers:       t.Headers,
		Rows:          t.Rows,
		Notes:         t.Notes,
	}
	if doc.Rows == nil {
		doc.Rows = [][]string{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadJSON parses a versioned JSON table, rejecting documents whose
// schema major version this build does not understand.
func ReadJSON(r io.Reader) (*Table, error) {
	var doc JSONTable
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("report: parsing JSON table: %w", err)
	}
	if err := schema.Check(doc.SchemaVersion); err != nil {
		return nil, err
	}
	return &Table{Title: doc.Title, Headers: doc.Headers, Rows: doc.Rows, Notes: doc.Notes}, nil
}

// Pct formats a fraction as a percentage string.
func Pct(frac float64) string { return fmt.Sprintf("%.1f%%", frac*100) }
