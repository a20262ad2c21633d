package backend

import (
	"math/rand"
	"testing"

	"gokoala/internal/dist"
	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// TestTracedMatchesUntraced checks every kernel of both engines gives
// the same results with obs collection on as with it off.
func TestTracedMatchesUntraced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := tensor.Rand(rng, 4, 5, 3)
	b := tensor.Rand(rng, 3, 6)
	tall := tensor.Rand(rng, 24, 4)

	type results struct {
		ein, q, r, u, v, orth *tensor.Dense
		s                     []float64
	}
	run := func(e Engine, traced bool) results {
		if traced {
			obs.Enable()
			defer obs.Disable()
		}
		var res results
		res.ein = e.Einsum("abc,cd->abd", a, b)
		res.q, res.r = e.QRSplit(a, 2)
		res.u, res.s, res.v = e.TruncSVD(b, 2)
		res.orth = e.Orth(tall)
		return res
	}
	for name, e := range engines() {
		off, on := run(e, false), run(e, true)
		for _, p := range [][2]*tensor.Dense{{off.ein, on.ein}, {off.q, on.q}, {off.r, on.r},
			{off.u, on.u}, {off.v, on.v}, {off.orth, on.orth}} {
			if !tensor.AllClose(p[0], p[1], 1e-12, 1e-12) {
				t.Fatalf("%s: traced kernel result differs from untraced", name)
			}
		}
		if len(on.s) != len(off.s) {
			t.Fatalf("%s: traced TruncSVD kept %d values, untraced %d", name, len(on.s), len(off.s))
		}
		for i := range off.s {
			if d := off.s[i] - on.s[i]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("%s: traced singular values differ: %v vs %v", name, on.s, off.s)
			}
		}
	}
}

// TestInstrumentedSpansAndCounters verifies a bare engine reports GEMM
// flops and emits the nested einsum -> einsum.gemm spans, and that Dist
// spans carry the grid's modeled-seconds annotations.
func TestInstrumentedSpansAndCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.Rand(rng, 6, 7)
	b := tensor.Rand(rng, 7, 8)

	var events []obs.Event
	obs.Enable(sinkFunc(func(ev obs.Event) { events = append(events, ev) }))
	defer obs.Disable()
	NewDense().Einsum("ab,bc->ac", a, b)
	if got := obs.MetricValueOf("einsum.gemm.flops"); got != 6*8*7 {
		t.Fatalf("einsum.gemm.flops = %v want %d", got, 6*8*7)
	}
	if got := obs.MetricValueOf("einsum.contractions"); got != 1 {
		t.Fatalf("einsum.contractions = %v want 1", got)
	}
	if len(events) != 2 || events[0].Name != "einsum.gemm" || events[1].Name != "einsum" ||
		events[0].Parent != events[1].ID {
		t.Fatalf("want an einsum.gemm span nested in an einsum span, got %+v", events)
	}

	// Dist engine: spans must carry machine-model annotations.
	obs.Enable()
	grid := dist.NewGrid(dist.Stampede2(64))
	NewDist(grid, false).Einsum("ab,bc->ca", a, b) // output transpose forces a metered move
	var einsumStat obs.PhaseStat
	for _, s := range obs.Summary() {
		if s.Name == "einsum" {
			einsumStat = s
		}
	}
	if einsumStat.Count != 1 {
		t.Fatalf("dist einsum span missing: %+v", obs.Summary())
	}
	if einsumStat.Attrs["modeled_s"] <= 0 {
		t.Fatalf("dist einsum span has no modeled seconds: %+v", einsumStat.Attrs)
	}
	if obs.MetricValueOf("einsum.gemm.flops") != 6*8*7 {
		t.Fatalf("dist flop counter = %v", obs.MetricValueOf("einsum.gemm.flops"))
	}
}

// sinkFunc records completed spans in memory.
type sinkFunc func(obs.Event)

func (f sinkFunc) SpanEnd(ev obs.Event) { f(ev) }
func (sinkFunc) Flush() error           { return nil }
