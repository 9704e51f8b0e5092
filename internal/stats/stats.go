// Package stats defines the measurement vocabulary of the simulator: raw
// counters collected by the core, the top-down issue-slot breakdown
// (Figure 1), and the derived metrics the paper reports (IPC, MPKI, PPKI,
// prefetch accuracy, FEC stall shares, geomean speedups).
package stats

import (
	"fmt"
	"math"
	"sort"

	"pdip/internal/checkpoint"
)

// TopDown is the issue-slot breakdown of the top-down method (Yasin),
// declared with the checkpoint records.
type TopDown = checkpoint.TopDown

// Core aggregates one simulation run's raw counters: the core's
// checkpoint record itself, one embedded group per owning stage.
type Core = checkpoint.CoreStats

// Speedup returns the relative IPC gain of new over base as a fraction
// (0.032 == +3.2%).
func Speedup(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return new/base - 1
}

// Geomean returns the geometric mean of (1+x) minus 1 over speedup
// fractions, the paper's mean-speedup convention. Empty input yields 0.
func Geomean(speedups []float64) float64 {
	if len(speedups) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range speedups {
		v := 1 + s
		if v <= 0 {
			v = 1e-9
		}
		sum += math.Log(v)
	}
	return math.Exp(sum/float64(len(speedups))) - 1
}

// GeomeanIPC returns the geometric mean of raw IPC values.
func GeomeanIPC(ipcs []float64) float64 {
	if len(ipcs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range ipcs {
		if v <= 0 {
			v = 1e-9
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(ipcs)))
}

// Pct formats a fraction as a percentage string with one decimal.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// Table is a minimal text-table builder for harness and cmd output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends one row; short rows are padded.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var out string
	line := func(cells []string) string {
		s := ""
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			s += fmt.Sprintf("%-*s", widths[i], c)
			if i != len(widths)-1 {
				s += "  "
			}
		}
		return s + "\n"
	}
	out += line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	out += line(sep)
	for _, row := range t.rows {
		out += line(row)
	}
	return out
}

// Median returns the median of xs (not destructive). Empty input yields 0.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}
