package vqe

import (
	"errors"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// TestBareEnginesTraceAndGuard: a bare dense engine and EnergyPEPS with
// no engine set (its dense default) emit einsum spans while obs is on,
// and their kernel results pass the backend NaN/Inf guards, with no
// wrapper in between.
func TestBareEnginesTraceAndGuard(t *testing.T) {
	defer func() {
		health.SetPolicy(health.PolicyOff)
		health.ResetCounters()
	}()
	a := Ansatz{Rows: 2, Cols: 2, Layers: 1}
	ham := quantum.TransverseFieldIsing(2, 2, -1, -3.5)
	theta := make([]float64, a.NumParams())
	theta[0] = math.NaN()
	poisoned := tensor.New(2, 2)
	poisoned.Set(cmplx.NaN(), 0, 0)
	runs := map[string]func(){
		"dense":      func() { backend.NewDense().Einsum("ij,jk->ik", poisoned, poisoned) },
		"EnergyPEPS": func() { EnergyPEPS(a, ham, theta, Options{Rank: 2, ContractionRank: 4, Seed: 1}) },
	}
	for name, run := range runs {
		health.ResetCounters()
		health.SetPolicy(health.PolicyCount)
		obs.Enable()
		run()
		var einsums int64
		for _, s := range obs.Summary() {
			if s.Name == "einsum" {
				einsums = s.Count
			}
		}
		obs.Disable()
		if einsums == 0 {
			t.Errorf("%s: no einsum spans with obs on", name)
		}
		if health.NaNDetected() == 0 {
			t.Errorf("%s: health.nan_detected not counted under PolicyCount", name)
		}

		// The first guard to see the NaN is an engine kernel's (raised
		// from a lattice task, it arrives wrapped in *pool.TaskPanic).
		health.SetPolicy(health.PolicyError)
		func() {
			defer func() {
				err, _ := recover().(error)
				var ne *health.NumError
				if !errors.As(err, &ne) || !strings.HasPrefix(ne.Stage, "backend.") {
					t.Errorf("%s: PolicyError raised %v, want a *health.NumError at a backend stage", name, err)
				}
			}()
			run()
		}()
	}
}
