package main

import (
	"math"
	"testing"
)

func TestCoverageUnionsOverlappingSpans(t *testing.T) {
	w := interval{0, 100}
	cases := []struct {
		name  string
		spans []interval
		want  int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{10, 20}, {30, 45}}, 25},
		// Two pool tasks busy at once count once.
		{"overlapping", []interval{{10, 40}, {20, 50}}, 40},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"touching", []interval{{10, 20}, {20, 30}}, 20},
		{"unsorted", []interval{{70, 80}, {10, 20}, {15, 25}}, 25},
		// Spans are clipped to the window.
		{"clipped", []interval{{-10, 10}, {90, 130}}, 20},
		{"outside", []interval{{-20, -10}, {100, 120}}, 0},
		{"whole", []interval{{-5, 200}, {10, 20}}, 100},
	}
	for _, c := range cases {
		if got := coverage(w, c.spans); got != c.want {
			t.Errorf("%s: coverage %d, want %d", c.name, got, c.want)
		}
	}
}

// Covered time plus self time always adds up to the windows' wall
// time: self time is each window minus the union of its spans.
func TestCoveragePlusSelfIsWall(t *testing.T) {
	windows := []interval{{0, 100}, {100, 150}}
	spans := [][]interval{{{0, 30}, {10, 40}, {60, 70}}, {{100, 150}}}
	var covered, wall int64
	for i, w := range windows {
		covered += coverage(w, spans[i])
		wall += w.end - w.start
	}
	var s layerStats
	s.addOp(counters{}, counters{}, 0, wall, covered)
	var r result
	s.report(&r)
	if got := r.metrics["peps.self_s"].Value; math.Abs(got-50e-9) > 1e-18 {
		t.Fatalf("peps.self_s %g, want 5e-8 (150 ns of windows, 100 ns covered)", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		p      float64
		want   float64
		wantOK bool
	}{
		{50, 50, true},
		{90, 90, true},  // exactly ten samples lie beyond the 90th
		{91, 91, false}, // nine beyond: too thin a tail to report
		{100, 100, false},
	} {
		got, ok := percentile(xs, c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("p%g: got %g (ok=%v), want %g (ok=%v)", c.p, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(xs[:99], 90); ok {
		t.Error("p90 of 99 samples has only nine beyond it and must not be reportable")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported as valid")
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd count %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count %g, want 2.5", got)
	}
	if got := spread([]float64{7, 7, 7}); got != 0 {
		t.Errorf("spread of identical samples %g, want 0", got)
	}
	if got := spread([]float64{9, 10, 11}); got != 0.2 {
		t.Errorf("spread %g, want 0.2", got)
	}
}
