package bench

import (
	"strings"
	"testing"
)

func baseResult() SuiteResult {
	return SuiteResult{
		Suite:          "t",
		Flops:          1_000_000,
		CommBytes:      500_000,
		ModeledSeconds: 2.0,
		TaskCount:      128,
		PlanCacheRate:  0.95,
		WallSeconds:    10,
		PeakBytes:      1 << 20,
		Health:         HealthCounters{SVDFallbacks: 3},
	}
}

func violationsFor(t *testing.T, mutate func(*SuiteResult)) []Violation {
	t.Helper()
	base := baseResult()
	got := baseResult()
	mutate(&got)
	return CompareSuite(base, got)
}

func TestCompareIdenticalPasses(t *testing.T) {
	if v := violationsFor(t, func(*SuiteResult) {}); len(v) != 0 {
		t.Fatalf("identical results must pass, got %v", v)
	}
	if v := symViolations(func(*SuiteResult) {}); len(v) != 0 {
		t.Fatalf("identical sym details must pass, got %v", v)
	}
}

func TestCompareFlopsDrift(t *testing.T) {
	// 0.5% drift passes, 2% fails, in either direction.
	if v := violationsFor(t, func(r *SuiteResult) { r.Flops = 1_005_000 }); len(v) != 0 {
		t.Fatalf("0.5%% flops drift should pass: %v", v)
	}
	v := violationsFor(t, func(r *SuiteResult) { r.Flops = 1_020_000 })
	if len(v) != 1 || v[0].Metric != "flops" {
		t.Fatalf("2%% flops drift should fail on flops: %v", v)
	}
	if v := violationsFor(t, func(r *SuiteResult) { r.Flops = 980_000 }); len(v) != 1 {
		t.Fatalf("flops gate must be symmetric: %v", v)
	}
}

func TestCompareModeledSecondsTolerance(t *testing.T) {
	if v := violationsFor(t, func(r *SuiteResult) { r.ModeledSeconds = 2.08 }); len(v) != 0 {
		t.Fatalf("4%% modeled drift should pass: %v", v)
	}
	if v := violationsFor(t, func(r *SuiteResult) { r.ModeledSeconds = 2.2 }); len(v) != 1 {
		t.Fatalf("10%% modeled drift should fail: %v", v)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	base := baseResult()
	base.CommBytes = 0
	got := baseResult()
	got.CommBytes = 7
	v := CompareSuite(base, got)
	if len(v) != 1 || v[0].Metric != "comm_bytes" {
		t.Fatalf("nonzero against zero baseline must fail: %v", v)
	}
	got.CommBytes = 0
	if v := CompareSuite(base, got); len(v) != 0 {
		t.Fatalf("zero against zero must pass: %v", v)
	}
}

func TestComparePlanCacheOneSided(t *testing.T) {
	// Small dips and any improvement pass; a real drop fails.
	if v := violationsFor(t, func(r *SuiteResult) { r.PlanCacheRate = 0.94 }); len(v) != 0 {
		t.Fatalf("0.01 hit-rate dip should pass: %v", v)
	}
	if v := violationsFor(t, func(r *SuiteResult) { r.PlanCacheRate = 0.99 }); len(v) != 0 {
		t.Fatalf("hit-rate improvement should pass: %v", v)
	}
	v := violationsFor(t, func(r *SuiteResult) { r.PlanCacheRate = 0.85 })
	if len(v) != 1 || v[0].Metric != "plan_cache_hit_rate" {
		t.Fatalf("0.10 hit-rate drop should fail: %v", v)
	}
}

func TestCompareHealthOneSided(t *testing.T) {
	v := violationsFor(t, func(r *SuiteResult) { r.Health.SVDFallbacks = 4 })
	if len(v) != 1 || v[0].Metric != "health.svd_fallbacks" {
		t.Fatalf("health increase should fail: %v", v)
	}
	if v := violationsFor(t, func(r *SuiteResult) { r.Health.SVDFallbacks = 0 }); len(v) != 0 {
		t.Fatalf("health recovery should pass: %v", v)
	}
	v = violationsFor(t, func(r *SuiteResult) { r.Health.NaNDetected = 1 })
	if len(v) != 1 || v[0].Metric != "health.nan_detected" {
		t.Fatalf("new NaNs should fail: %v", v)
	}
}

func TestCompareWallClockNeverGated(t *testing.T) {
	if v := violationsFor(t, func(r *SuiteResult) {
		r.WallSeconds = 1000 // 100x slower
		r.PeakBytes = 1 << 40
		r.GroupTasks = 12345
	}); len(v) != 0 {
		t.Fatalf("wall clock, peak bytes and scheduling splits must not gate: %v", v)
	}
}

func TestCompareTaskCount(t *testing.T) {
	v := violationsFor(t, func(r *SuiteResult) { r.TaskCount = 200 })
	if len(v) != 1 || v[0].Metric != "task_count" {
		t.Fatalf("task count drift should fail: %v", v)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Suite: "fig7a", Metric: "flops", Base: 10, Got: 20, Reason: "r"}
	s := v.String()
	for _, part := range []string{"fig7a", "flops", "10", "20", "r"} {
		if !strings.Contains(s, part) {
			t.Fatalf("violation string %q missing %q", s, part)
		}
	}
}

// symResult is baseResult carrying a two-model sym detail, both models
// passing acceptance.
func symResult() SuiteResult {
	r := baseResult()
	r.Sym = &SymSuiteDetail{Models: []SymModelResult{
		{Model: "tfi-dual-z2", SymGEMMFlops: 1000, SymDenseEquivFlops: 4000, Pass: true},
		{Model: "j1j2-u1", SymGEMMFlops: 2000, SymDenseEquivFlops: 16000, Pass: true},
	}}
	return r
}

func symViolations(mutate func(*SuiteResult)) []Violation {
	got := symResult()
	mutate(&got)
	return CompareSuite(symResult(), got)
}

func TestCompareSymModelMissing(t *testing.T) {
	v := symViolations(func(r *SuiteResult) { r.Sym.Models = r.Sym.Models[:1] })
	if len(v) != 1 || v[0].Metric != "sym.j1j2-u1" || v[0].Reason != "model missing from fresh run" {
		t.Fatalf("a model missing from the fresh run must give one violation: %v", v)
	}
}

func TestCompareSymGEMMFlopsDrift(t *testing.T) {
	if v := symViolations(func(r *SuiteResult) { r.Sym.Models[0].SymGEMMFlops = 1005 }); len(v) != 0 {
		t.Fatalf("0.5%% sym gemm_flops drift should pass: %v", v)
	}
	v := symViolations(func(r *SuiteResult) { r.Sym.Models[0].SymGEMMFlops = 1020 })
	if len(v) != 1 || v[0].Metric != "sym.tfi-dual-z2.gemm_flops" {
		t.Fatalf("2%% sym gemm_flops drift must give one violation: %v", v)
	}
}

func TestCompareSymVerdictRegressed(t *testing.T) {
	v := symViolations(func(r *SuiteResult) { r.Sym.Models[1].Pass = false })
	if len(v) != 1 || v[0].Metric != "sym.j1j2-u1.pass" {
		t.Fatalf("a pass -> fail verdict must give one violation: %v", v)
	}
}

func TestCompareSymDetailMissing(t *testing.T) {
	v := symViolations(func(r *SuiteResult) { r.Sym = nil })
	if len(v) != 1 || v[0].Metric != "sym" || v[0].Reason != "sym detail missing from fresh run" {
		t.Fatalf("a fresh run without the baseline's sym detail must give one violation: %v", v)
	}
	// A baseline without sym detail gates nothing about it.
	got := symResult()
	if v := CompareSuite(baseResult(), got); len(v) != 0 {
		t.Fatalf("sym detail absent from the baseline must not gate: %v", v)
	}
}
