// Package bench contains the workload generators, parameter sweeps, and
// report printers that regenerate every table and figure of the paper's
// evaluation (section VI). Each ExperimentXxx function runs one
// experiment and writes an aligned text table of the same rows/series the
// paper plots; cmd/koala-bench exposes them on the command line and
// bench_test.go wraps the underlying kernels in testing.B benchmarks.
//
// Problem sizes are scaled to a single core (see DESIGN.md section 3);
// the swept shapes — who wins, crossovers, thresholds, scaling slopes —
// are the reproduction targets recorded in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"time"

	"gokoala/internal/backend"
	"gokoala/internal/dist"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// Table accumulates rows and prints them aligned.
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e4 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Print writes the table to w.
func (t *Table) Print(w io.Writer) {
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
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
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
}

// timeIt returns the wall-clock seconds of f.
func timeIt(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// flopsOf returns the complex-flop count of f.
func flopsOf(f func()) int64 {
	before := tensor.FlopCount()
	f()
	return tensor.FlopCount() - before
}

// logSlope fits the least-squares slope of log(y) against log(x),
// the empirical scaling exponent.
func logSlope(xs []float64, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// tebdLayer applies one layer of two-site TEBD-style operators: one gate
// on every horizontally and vertically adjacent pair (the paper's "one
// layer of TEBD operators" evolution benchmark).
func tebdLayer(p *peps.PEPS, gate *tensor.Dense, opts peps.UpdateOptions) {
	for r := 0; r < p.Rows; r++ {
		for c := 0; c+1 < p.Cols; c++ {
			p.ApplyTwoSite(gate, p.SiteIndex(r, c), p.SiteIndex(r, c+1), opts)
		}
	}
	for r := 0; r+1 < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			p.ApplyTwoSite(gate, p.SiteIndex(r, c), p.SiteIndex(r+1, c), opts)
		}
	}
}

// evolutionWorkload builds a random PEPS of the given bond dimension and
// returns a function applying one TEBD layer with the given engine and
// options.
func evolutionWorkload(eng backend.Engine, seed int64, n, bond int, opts peps.UpdateOptions) func() {
	rng := rand.New(rand.NewSource(seed))
	state := peps.Random(eng, rng, n, n, 2, bond)
	gate := quantum.ISwap()
	return func() { tebdLayer(state.Clone(), gate, opts) }
}

// denseEngine returns the sequential engine wrapped with obs
// instrumentation (a no-op passthrough while tracing is off), so every
// experiment feeds spans and counters when cmd/koala-bench enables
// collection.
func denseEngine() backend.Engine { return backend.Instrument(backend.NewDense()) }

// engineSet returns the named engines of the evolution benchmarks
// (paper Figure 7): the dense (NumPy-analog) engine and the three
// Cyclops-analog variants, each with its own grid so modeled costs are
// attributable. All engines carry obs instrumentation.
func engineSet(ranks int) (map[string]backend.Engine, map[string]*dist.Grid) {
	g1 := dist.NewGrid(dist.Stampede2(ranks)).SetLabel("dist-qr-svd")
	g2 := dist.NewGrid(dist.Stampede2(ranks)).SetLabel("dist-local-gram-qr")
	g3 := dist.NewGrid(dist.Stampede2(ranks)).SetLabel("dist-local-gram-qr-svd")
	engines := map[string]backend.Engine{
		"dense-qr-svd":           denseEngine(),
		"dist-qr-svd":            backend.Instrument(backend.NewDist(g1, false)),
		"dist-local-gram-qr":     backend.Instrument(backend.NewDist(g2, true)),
		"dist-local-gram-qr-svd": backend.Instrument(&backend.Dist{Grid: g3, UseGram: true, LocalSVD: true}),
	}
	grids := map[string]*dist.Grid{
		"dist-qr-svd":            g1,
		"dist-local-gram-qr":     g2,
		"dist-local-gram-qr-svd": g3,
	}
	return engines, grids
}

// explicitStrategy and implicitStrategy are the standard einsumsvd
// strategies used throughout the experiments.
func explicitStrategy() einsumsvd.Strategy { return einsumsvd.Explicit{} }

func implicitStrategy(seed int64) einsumsvd.Strategy {
	return einsumsvd.ImplicitRand{NIter: 1, Oversample: 4, Rng: rand.New(rand.NewSource(seed)), Sketch32: sketch32}
}

// sketch32 opts every implicit strategy the experiments construct into
// the complex64 sketch stage (the koala-bench -f32-sketch flag); it is
// recorded in each suite's KernelInfo.
var sketch32 bool

// SetSketch32 toggles the complex64 RandSVD sketch stage for every
// implicit strategy the experiments build. Call before running suites.
func SetSketch32(on bool) { sketch32 = on }
