// Package bench regenerates every figure of the paper's evaluation
// (Figures 4, 6 and 13-24; the paper has no numbered tables). Each FigNN
// function runs the corresponding experiment end to end — workload
// generation, hidden-interface construction, discovery and baseline runs —
// and returns the same series the paper plots, ready for textual rendering
// or CSV export. The testing.B benchmarks in the repository root and the
// cmd/skybench tool are thin wrappers over this package. The package's
// golden tests own the paper's cost metric: they pin the exact query
// count of every figure at quick scale and of fixed discoveries
// (testdata/*.golden).
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"hiddensky/internal/core"
	"hiddensky/internal/skyline"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks database sizes so the whole suite finishes in CI
	// time; the full scale reproduces the paper's setup.
	Quick bool
	// Seed drives every generator; runs are deterministic given it.
	Seed int64
}

// scale returns quick when cfg.Quick, else full.
func (c Config) scale(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Point is one x/y sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is one plotted line.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string // "fig13"
	Title  string // what the paper's caption says
	XLabel string
	YLabel string
	Series []Series
	// Notes carries run facts worth recording in EXPERIMENTS.md
	// (skyline sizes, truncated baselines, measured ratios).
	Notes []string
}

// String renders the figure as an aligned text table: one row per distinct
// X, one column per series.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range sorted {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := "-"
			for _, p := range s.Points {
				if p.X == x {
					cell = trimFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	writeAligned(&b, rows)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// WriteCSV emits the figure as x,series1,series2,... rows.
func (f Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	for _, x := range sorted {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = trimFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func writeAligned(b *strings.Builder, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
}

// Runner regenerates one figure.
type Runner struct {
	ID    string
	Title string
	Run   func(Config) (Figure, error)
}

// All returns every figure runner in paper order.
func All() []Runner {
	return []Runner{
		{"fig4", "Worst vs average cost of SQ-DB-SKY (analytic)", Fig4},
		{"fig6", "SQ vs RQ simulation across skyline sizes", Fig6},
		{"fig13", "Range predicates: impact of k (RQ vs BASELINE)", Fig13},
		{"fig14", "Range predicates: impact of n", Fig14},
		{"fig15", "Range predicates: impact of m", Fig15},
		{"fig16", "Point predicates: impact of n", Fig16},
		{"fig17", "Point predicates: impact of domain size", Fig17},
		{"fig18", "Mixed predicates: impact of n", Fig18},
		{"fig19", "Mixed predicates: varying range and point attributes", Fig19},
		{"fig20", "Anytime property of SQ and RQ-DB-SKY", Fig20},
		{"fig21", "Anytime property of PQ-DB-SKY", Fig21},
		{"fig22", "Online: Blue Nile diamonds (MQ vs BASELINE)", Fig22},
		{"fig23", "Online: Google Flights", Fig23},
		{"fig24", "Online: Yahoo! Autos (MQ vs BASELINE)", Fig24},
	}
}

// ByID returns the runner for a figure id ("fig13", "13", "Fig13").
func ByID(id string) (Runner, bool) {
	norm := strings.ToLower(strings.TrimSpace(id))
	for _, r := range All() {
		if r.ID == norm || r.ID == "fig"+norm {
			return r, true
		}
	}
	return Runner{}, false
}

// discoveryCurve converts a discovery trace into the paper's anytime plot:
// point i is (i, queries issued when the i-th tuple of the final skyline
// was first returned). Trace entries that were later displaced by a
// dominator are ignored.
func discoveryCurve(trace []core.TraceEvent, finalSky [][]int) []Point {
	inSky := map[string]bool{}
	for _, t := range finalSky {
		inSky[fmt.Sprint(t)] = true
	}
	seen := map[string]bool{}
	var out []Point
	for _, ev := range trace {
		key := fmt.Sprint(ev.Tuple)
		if !inSky[key] || seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, Point{X: float64(len(out) + 1), Y: float64(ev.Queries)})
	}
	return out
}

// groundSkyline computes the offline skyline of a dataset's tuples.
func groundSkyline(data [][]int) [][]int { return skyline.ComputeTuples(data) }
