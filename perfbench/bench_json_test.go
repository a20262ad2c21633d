package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("%s: program reports %d metrics, BENCHMARK.json lists %d: %v", what, len(got), len(want), names)
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: %s listed in BENCHMARK.json but not reported", what, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: %s reported in %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		}
	}
}

// Every run prints exactly the metrics BENCHMARK.json lists, in its
// units: the end-to-end ones untraced, the per-layer ones traced.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var e2e result
	e2e.endToEnd([]float64{1}, []float64{2}, []float64{3}, 4, 5)
	checkMetrics(t, "end_to_end", e2e.metrics, spec.EndToEnd)
	var layers result
	(&layerStats{}).report(&layers)
	checkMetrics(t, "per_layer", layers.metrics, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
}
