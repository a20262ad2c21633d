package main

import (
	"math"
	"math/rand"
	"runtime"

	"gokoala/internal/backend"
	"gokoala/internal/einsum"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/ite"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
)

// The ITE workloads: the paper's J1-J2 model (Fig. 13 parameters) on a
// 3x4 lattice, r = m = 3, tau = 0.05, energy measured with IBMPS at the
// final step only.
const (
	iteRows, iteCols = 3, 4
	iteRank          = 3
	iteTau           = 0.05
	iteSteps         = 100
	// iteWarmSteps is the length of the set-up evolution that warms the
	// plan cache before timing starts.
	iteWarmSteps = 5
	setupReps    = 5

	// exactGroundPerSite is the exact ground-state energy per site of
	// the 3x4 model. The dense and U(1) forms share it: the couplings
	// are isotropic, so rotating the uniform field onto z leaves the
	// spectrum unchanged. TestExactGroundEnergy re-derives it.
	exactGroundPerSite = -1.844834473902

	// A solve fails when its energy lies below the exact ground energy
	// by more than iteBelowTol (an approximate contraction may undershoot
	// slightly, a broken one by far) or above it by more than
	// iteAboveTol. The start states lie far above it: |+...+> by 3.96
	// per site, the Neel state by 0.93.
	iteBelowTol = 0.01
	iteAboveTol = 0.35
)

// iteModel returns the Hamiltonian of the workload.
func iteModel(sym bool) *quantum.Observable {
	if sym {
		return quantum.J1J2HeisenbergU1(iteRows, iteCols, quantum.PaperJ1J2ParamsU1())
	}
	return quantum.J1J2Heisenberg(iteRows, iteCols, quantum.PaperJ1J2Params())
}

// iteSolve runs one evolution from the workload's start state on eng:
// |+...+> on the dense path, the Neel state on the U(1) path.
func iteSolve(eng backend.Engine, model *quantum.Observable, sym bool, steps int, seed int64, afterStep func(int)) ite.Result {
	opts := ite.Options{
		Tau:             iteTau,
		Steps:           steps,
		EvolutionRank:   iteRank,
		ContractionRank: iteRank,
		Strategy:        einsumsvd.ImplicitRand{Rng: rand.New(rand.NewSource(seed))},
		MeasureEvery:    steps,
		Seed:            seed,
		UseCache:        true,
		AfterStep:       afterStep,
	}
	if sym {
		se, ok := backend.SymOf(eng)
		if !ok {
			panic("perfbench: engine " + eng.Name() + " has no block-sparse kernels")
		}
		state := peps.SymComputationalBasis(se, 0, iteRows, iteCols, quantum.NeelBits(iteRows, iteCols))
		return ite.EvolveSym(state, model, opts)
	}
	return ite.Evolve(ite.PlusState(peps.ComputationalZeros(eng, iteRows, iteCols)), model, opts)
}

// iteCheck returns the final energy per site and whether the solve
// passed: it did not fall back to dense, and its energy is finite and
// within the tolerance band around the exact ground energy.
func iteCheck(res ite.Result) (float64, bool) {
	if res.FellBack || len(res.Energies) == 0 {
		return math.NaN(), false
	}
	e := res.Energies[len(res.Energies)-1]
	ok := !math.IsNaN(e) && !math.IsInf(e, 0) &&
		e >= exactGroundPerSite-iteBelowTol && e <= exactGroundPerSite+iteAboveTol
	return e, ok
}

func runITE(cfg config, sym bool) result {
	var res result
	var model *quantum.Observable
	var eng backend.Engine
	var setups []float64
	for i := 0; i < setupReps; i++ {
		// Each set-up starts cold: empty plan cache, no garbage left
		// from the previous one.
		einsum.ResetPlanCache()
		runtime.GC()
		t0 := nowNs()
		model = iteModel(sym)
		eng = backend.Instrument(backend.NewDense())
		iteSolve(eng, model, sym, iteWarmSteps, cfg.seed, nil)
		setups = append(setups, float64(nowNs()-t0)/1e9)
	}

	runtime.GC()
	res.note("setup_peak_rss_mb", peakRSSMB())
	rec := newRecorder()
	traced := wrapEngine(eng, rec)
	var layers layerStats
	var solves, steps []float64
	first := math.NaN()
	var final float64
	start, done := deadline(cfg)
	for i := 0; !done(); i++ {
		tracing := cfg.trace && i%2 == 1
		e := eng
		if tracing {
			e = traced
		}
		var before counters
		if tracing {
			before = snapshot(rec)
			rec.takeSpans()
		}
		var stepWall []float64
		var covered int64
		t0 := nowNs()
		prev := t0
		afterStep := func(int) {
			now := nowNs()
			stepWall = append(stepWall, float64(now-prev)/1e9)
			if tracing {
				covered += coverage(interval{prev, now}, rec.takeSpans())
			}
			prev = now
		}
		var out ite.Result
		panicked := guard(func() { out = iteSolve(e, model, sym, iteSteps, cfg.seed, afterStep) })
		wall := float64(nowNs()-t0) / 1e9
		res.attempted++
		energy, ok := iteCheck(out)
		if math.IsNaN(first) && ok {
			first = energy
		}
		// Every solve of a run has the same inputs and seed, so its
		// energy must repeat bit for bit.
		if panicked || !ok || energy != first {
			res.failed++
			continue
		}
		final = energy
		if tracing {
			layers.addOp(before, snapshot(rec), wall, prev-t0, covered)
			continue
		}
		layers.plain = append(layers.plain, wall)
		solves = append(solves, wall)
		// The last step also measures the energy; step times leave it out.
		steps = append(steps, stepWall[:len(stepWall)-1]...)
	}
	elapsed := float64(nowNs()-start) / 1e9

	res.note("energy_per_site", final)
	res.note("exact_per_site", exactGroundPerSite)
	res.note("energy_err", final-exactGroundPerSite)
	res.note("solves", len(solves))
	res.note("solve_times", solves)
	res.note("fail_ratio", ratio(float64(res.failed), float64(res.attempted)))
	if cfg.trace {
		layers.report(&res)
		res.note("ops_traced", layers.ops)
		return res
	}
	p90, p90ok := percentile(steps, 90)
	res.note("steps", len(steps))
	res.note("step_p90_s", p90)
	res.note("step_p90_has_10_beyond", p90ok)
	res.endToEnd(setups, solves, steps, len(solves)*iteSteps, elapsed)
	return res
}
