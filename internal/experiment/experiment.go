// Package experiment regenerates every table and figure of the paper's
// evaluation (§IV) from the simulator and the real middleware, printing
// paper-reported values next to measured ones.
//
// Each experiment returns a Table; the damaris-figures command renders
// them. Experiments are deterministic for a given seed.
package experiment

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one reproduced figure or table.
type Table struct {
	// ID is the experiment identifier ("fig2", "table1", …).
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, formatted.
	Rows [][]string
	// Notes carry caveats (calibration, substitutions).
	Notes []string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(t.ID), t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner produces a table for a seed.
type Runner func(seed int64) (Table, error)

// registry maps experiment IDs to runners.
var registry = map[string]Runner{}

// register adds an experiment at init time.
func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiment: duplicate id " + id)
	}
	registry[id] = r
}

// IDs lists the registered experiments in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
func Run(id string, seed int64) (Table, error) {
	r, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("experiment: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r(seed)
}

// RunAll executes every experiment.
func RunAll(seed int64) ([]Table, error) {
	var out []Table
	for _, id := range IDs() {
		t, err := Run(id, seed)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// seconds formats a duration in seconds with sensible precision.
func seconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 0.01:
		return fmt.Sprintf("%.4f", s)
	case s < 1:
		return fmt.Sprintf("%.2f", s)
	case s < 100:
		return fmt.Sprintf("%.1f", s)
	default:
		return fmt.Sprintf("%.0f", s)
	}
}

// gbps formats bytes/sec as GB/s or MB/s.
func gbps(bps float64) string {
	if bps >= 1e9 {
		return fmt.Sprintf("%.2f GB/s", bps/1e9)
	}
	return fmt.Sprintf("%.0f MB/s", bps/1e6)
}
