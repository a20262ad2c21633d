package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// Regression gating (koala-bench -compare): a fresh SuiteResult is
// checked against a committed BENCH_<suite>.json baseline on the
// deterministic metrics only. Flops, communication volume, modeled
// machine time, and the task count are exact functions of the
// algorithm and configuration, so they gate with tight symmetric
// tolerances (any drift in either direction means the computation
// changed). The plan-cache hit rate can dip slightly when concurrent
// workers double-compile a plan, so it gates one-sided with a small
// allowance; health counters gate one-sided at zero tolerance (new
// numerical trouble fails, recovering from old trouble passes).
// Wall-clock seconds and peak scratch bytes are reported for context
// but never gated — CI machines are too noisy for timing gates.

// Gate tolerances.
const (
	relTolFlops   = 0.01 // symmetric, relative
	relTolComm    = 0.01 // symmetric, relative
	relTolModeled = 0.05 // symmetric, relative
	relTolTasks   = 0.01 // symmetric, relative
	absTolHitRate = 0.02 // one-sided, absolute decrease
)

// Violation is one gated metric outside its tolerance.
type Violation struct {
	Suite  string
	Metric string
	Base   float64
	Got    float64
	// Reason states the tolerance that was exceeded.
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: baseline %g, got %g (%s)", v.Suite, v.Metric, v.Base, v.Got, v.Reason)
}

// CompareSuite gates a fresh result against its baseline and returns
// the violations (nil when the run passes).
func CompareSuite(base, got SuiteResult) []Violation {
	var out []Violation
	sym := func(metric string, b, g, relTol float64) {
		var rel float64
		switch {
		case b == g:
			return
		case b == 0:
			rel = math.Inf(1)
		default:
			rel = math.Abs(g-b) / math.Abs(b)
		}
		if rel > relTol {
			out = append(out, Violation{
				Suite: got.Suite, Metric: metric, Base: b, Got: g,
				Reason: fmt.Sprintf("relative change %.4f exceeds %.2f", rel, relTol),
			})
		}
	}
	// Every kernel charges the whole-run flop counter once, by shape, so
	// it is deterministic for every suite at any worker count.
	sym("flops", float64(base.Flops), float64(got.Flops), relTolFlops)
	sym("comm_bytes", float64(base.CommBytes), float64(got.CommBytes), relTolComm)
	sym("modeled_seconds", base.ModeledSeconds, got.ModeledSeconds, relTolModeled)
	sym("task_count", float64(base.TaskCount), float64(got.TaskCount), relTolTasks)
	if drop := base.PlanCacheRate - got.PlanCacheRate; drop > absTolHitRate {
		out = append(out, Violation{
			Suite: got.Suite, Metric: "plan_cache_hit_rate",
			Base: base.PlanCacheRate, Got: got.PlanCacheRate,
			Reason: fmt.Sprintf("hit rate dropped %.4f, more than %.2f", drop, absTolHitRate),
		})
	}
	oneSided := func(metric string, b, g int64) {
		if g > b {
			out = append(out, Violation{
				Suite: got.Suite, Metric: "health." + metric,
				Base: float64(b), Got: float64(g),
				Reason: "health counter increased",
			})
		}
	}
	// Sym-suite details gate like the other deterministic metrics: the
	// executed and dense-equivalent GEMM flops are exact functions of the
	// configuration, and a model that passed acceptance must keep passing.
	// A fresh run that drops the detail a baseline carries fails outright.
	switch {
	case base.Sym == nil:
	case got.Sym == nil:
		out = append(out, Violation{
			Suite: got.Suite, Metric: "sym",
			Base: float64(len(base.Sym.Models)), Got: 0,
			Reason: "sym detail missing from fresh run",
		})
	default:
		byModel := make(map[string]SymModelResult, len(got.Sym.Models))
		for _, m := range got.Sym.Models {
			byModel[m.Model] = m
		}
		for _, b := range base.Sym.Models {
			g, ok := byModel[b.Model]
			if !ok {
				out = append(out, Violation{
					Suite: got.Suite, Metric: "sym." + b.Model,
					Base: 1, Got: 0, Reason: "model missing from fresh run",
				})
				continue
			}
			sym("sym."+b.Model+".gemm_flops", float64(b.SymGEMMFlops), float64(g.SymGEMMFlops), relTolFlops)
			sym("sym."+b.Model+".dense_equiv_flops", float64(b.SymDenseEquivFlops), float64(g.SymDenseEquivFlops), relTolFlops)
			if b.Pass && !g.Pass {
				out = append(out, Violation{
					Suite: got.Suite, Metric: "sym." + b.Model + ".pass",
					Base: 1, Got: 0, Reason: "acceptance verdict regressed",
				})
			}
		}
	}
	oneSided("nan_detected", base.Health.NaNDetected, got.Health.NaNDetected)
	oneSided("svd_fallbacks", base.Health.SVDFallbacks, got.Health.SVDFallbacks)
	oneSided("gram_fallbacks", base.Health.GramFallbacks, got.Health.GramFallbacks)
	oneSided("nonconverged", base.Health.Nonconverged, got.Health.Nonconverged)
	oneSided("checkpoint_failures", base.Health.CheckpointFailures, got.Health.CheckpointFailures)
	return out
}

// ReadBenchJSON loads dir/BENCH_<suite>.json.
func ReadBenchJSON(dir, suite string) (SuiteResult, error) {
	var res SuiteResult
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", suite))
	data, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}
