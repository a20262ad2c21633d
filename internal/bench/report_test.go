package bench

import (
	"reflect"
	"testing"
)

// The BENCH_<suite>.json files are the evidence make bench-compare gates
// on: what WriteBenchJSON writes, ReadBenchJSON must read back as a
// result the gate finds identical, with every detail block intact.
func TestBenchJSONRoundTrip(t *testing.T) {
	orig := symResult()
	orig.Suite = "roundtrip"
	orig.ModeledCompSeconds, orig.ModeledCommSeconds = 1.25, 0.75
	orig.PlanCacheHits, orig.PlanCacheMisses = 19, 1
	orig.Workers, orig.SpeedupVs1 = 2, 1.7
	orig.Scaling = []ScalingPoint{{Workers: 1, WallSeconds: 17, SpeedupVs1: 1}, {Workers: 2, WallSeconds: 10, SpeedupVs1: 1.7}}
	orig.GroupTasks, orig.GroupInline, orig.GroupWaitSeconds = 100, 28, 0.125
	orig.Health = HealthCounters{NaNDetected: 1, SVDFallbacks: 3, GramFallbacks: 2, Nonconverged: 4, CheckpointFailures: 5}
	orig.Sym.Models[0].EnergyDense = -1.0/3 - 1e-12
	orig.Sym.Models[0].EnergySym = -1.0 / 3
	orig.Kernel = &KernelInfo{Variant: "avx2", CPUFeatures: "avx2,fma", GFlops: 3.1, GEMMAsm: 7, GEMMGo: 11, GEMMMixed: 13, F32Sketch: true}

	dir := t.TempDir()
	if _, err := WriteBenchJSON(dir, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchJSON(dir, orig.Suite)
	if err != nil {
		t.Fatal(err)
	}
	if v := CompareSuite(orig, back); len(v) != 0 {
		t.Fatalf("round trip through BENCH_%s.json gives violations: %v", orig.Suite, v)
	}
	if !reflect.DeepEqual(back, orig) {
		t.Fatalf("round trip changed the result:\nwrote %+v\nread  %+v", orig, back)
	}
}
