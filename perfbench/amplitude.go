package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"

	"gokoala/internal/backend"
	"gokoala/internal/einsum"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/peps"
	"gokoala/internal/rqc"
	"gokoala/internal/statevector"
	"gokoala/internal/tensor"
)

// The amplitude workload: a 4x4, 8-layer random quantum circuit applied
// exactly (bond 16), then IBMPS amplitudes of random bit strings at
// m = 64, above the accuracy threshold of the paper's Fig. 10 sweep.
const (
	ampSide   = 4
	ampLayers = 8
	ampM      = 64
	// ampBatch bit strings make one solve; amplitude i computes bit
	// string i mod ampBatch, so every bit string recurs and its amplitude
	// must repeat bit for bit.
	ampBatch = 8
	// ampTol bounds the relative error against the state vector.
	ampTol = 1e-8
)

// amplitudeSetup is the circuit applied to a PEPS plus the bit strings
// to query.
type amplitudeSetup struct {
	state *peps.PEPS
	circ  rqc.Circuit
	bits  [ampBatch][]int
}

func newAmplitudeSetup(eng backend.Engine, seed int64) amplitudeSetup {
	rng := rand.New(rand.NewSource(seed))
	s := amplitudeSetup{circ: rqc.Generate(rng, ampSide, ampSide, ampLayers)}
	s.state = peps.ComputationalZeros(eng, ampSide, ampSide)
	rqc.Apply(s.state, s.circ, peps.UpdateOptions{Rank: 0, Method: peps.UpdateQR}, nil)
	for i := range s.bits {
		s.bits[i] = rqc.RandomBits(rng, ampSide*ampSide)
	}
	return s
}

// amplitude computes the amplitude of bit string b on state with IBMPS.
// The sketch is seeded from (seed, b), so it is a pure function of the
// bit string.
func amplitude(state *peps.PEPS, bits []int, seed int64, b int) complex128 {
	st := einsumsvd.ImplicitRand{Rng: rand.New(rand.NewSource(seed*ampBatch + int64(b))), NIter: 1, Oversample: 4}
	return state.Project(bits).ContractScalar(peps.BMPS{M: ampM, Strategy: st})
}

// withEngine returns state's tensors as a PEPS whose kernels run on eng.
func withEngine(state *peps.PEPS, eng backend.Engine) *peps.PEPS {
	sites := make([][]*tensor.Dense, state.Rows)
	for r := range sites {
		sites[r] = make([]*tensor.Dense, state.Cols)
		for c := range sites[r] {
			sites[r][c] = state.Site(r, c)
		}
	}
	return peps.New(eng, sites)
}

// exactAmplitudes applies the circuit to a state vector and returns the
// amplitude of every bit string. It is the reference and is never timed.
func exactAmplitudes(s amplitudeSetup) [ampBatch]complex128 {
	sv := statevector.Zeros(ampSide * ampSide)
	for _, g := range s.circ.Gates {
		sv.ApplyGate(g)
	}
	var out [ampBatch]complex128
	for i, b := range s.bits {
		out[i] = sv.Amplitude(b)
	}
	return out
}

func runAmplitude(cfg config) result {
	var res result
	var eng backend.Engine
	var setup amplitudeSetup
	var setups []float64
	var seen [ampBatch]complex128
	var computed [ampBatch]bool
	for i := 0; i < setupReps; i++ {
		// Each set-up starts cold: empty plan cache, no garbage left
		// from the previous one.
		einsum.ResetPlanCache()
		runtime.GC()
		t0 := nowNs()
		eng = backend.Instrument(backend.NewDense())
		setup = newAmplitudeSetup(eng, cfg.seed)
		// The warm-up amplitude fills the plan cache.
		seen[0] = amplitude(setup.state, setup.bits[0], cfg.seed, 0)
		setups = append(setups, float64(nowNs()-t0)/1e9)
	}
	computed[0] = true
	exact := exactAmplitudes(setup)

	runtime.GC()
	res.note("setup_peak_rss_mb", peakRSSMB())
	rec := newRecorder()
	traced := withEngine(setup.state, wrapEngine(eng, rec))
	var layers layerStats
	var amps, batches []float64
	var maxErr float64
	batchStart, batchOK := nowNs(), true
	start, done := deadline(cfg)
	for i := 0; !done(); i++ {
		b := i % ampBatch
		tracing := cfg.trace && i%2 == 1
		state := setup.state
		var before counters
		if tracing {
			state = traced
			before = snapshot(rec)
			rec.takeSpans()
		}
		if b == 0 {
			batchStart, batchOK = nowNs(), true
		}
		var amp complex128
		t0 := nowNs()
		panicked := guard(func() { amp = amplitude(state, setup.bits[b], cfg.seed, b) })
		t1 := nowNs()
		res.attempted++
		relErr := cmplx.Abs(amp-exact[b]) / cmplx.Abs(exact[b])
		if panicked || math.IsNaN(relErr) || relErr > ampTol || (computed[b] && amp != seen[b]) {
			res.failed++
			batchOK = false
			continue
		}
		seen[b], computed[b] = amp, true
		maxErr = max(maxErr, relErr)
		wall := float64(t1-t0) / 1e9
		if tracing {
			covered := coverage(interval{t0, t1}, rec.takeSpans())
			layers.addOp(before, snapshot(rec), wall, t1-t0, covered)
		} else {
			layers.plain = append(layers.plain, wall)
			amps = append(amps, wall)
		}
		if b == ampBatch-1 && batchOK {
			batches = append(batches, float64(nowNs()-batchStart)/1e9)
		}
	}
	elapsed := float64(nowNs()-start) / 1e9

	values := make([]string, ampBatch)
	for b, v := range seen {
		values[b] = fmt.Sprintf("%.17g", v)
	}
	res.note("amplitudes_by_bit_string", values)
	res.note("max_rel_err", maxErr)
	res.note("amplitudes", len(amps))
	res.note("fail_ratio", ratio(float64(res.failed), float64(res.attempted)))
	if cfg.trace {
		layers.report(&res)
		res.note("ops_traced", layers.ops)
		return res
	}
	res.note("batches", len(batches))
	res.endToEnd(setups, batches, amps, len(amps), elapsed)
	return res
}
