package bench

import (
	"fmt"
	"io"
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/ite"
	"gokoala/internal/linalg"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/statevector"
	"gokoala/internal/tensor"
)

// AblationConfig controls the design-choice ablation studies.
type AblationConfig struct {
	Seed int64
}

// ExperimentAblationRSVD quantifies the two knobs of the implicit
// randomized SVD (paper Algorithm 4) — orthogonal-iteration rounds and
// sketch oversampling — in the truncating regime that PEPS compression
// lives in: a matrix with a geometrically decaying spectrum is truncated
// to a fixed rank, and the achieved error is compared to the optimal
// (Eckart-Young) error of the exact truncated SVD. This backs the
// paper's Figure 10 observation that IBMPS adds no error over BMPS once
// the sketch is refined.
func ExperimentAblationRSVD(w io.Writer, cfg AblationConfig) {
	fmt.Fprintln(w, "Ablation: randomized SVD parameters (NIter x Oversample)")
	fmt.Fprintln(w, "task: rank-8 truncation of a 64x64 matrix with spectrum 0.8^i")
	fmt.Fprintln(w)
	eng := backend.NewDense()
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Build A = U diag(0.8^i) V* with Haar-ish factors.
	const n, rank = 64, 8
	u := quantum.RandomUnitary(rng, n)
	v := quantum.RandomUnitary(rng, n)
	d := tensor.New(n, n)
	sig := 1.0
	for i := 0; i < n; i++ {
		d.Set(complex(sig, 0), i, i)
		sig *= 0.8
	}
	a := tensor.MatMul(tensor.MatMul(u, d), v.Conj().Transpose(1, 0))

	truncErr := func(u2 *tensor.Dense, s []float64, v2 *tensor.Dense) float64 {
		k := len(s)
		sd := tensor.New(k, k)
		for i := 0; i < k; i++ {
			sd.Set(complex(s[i], 0), i, i)
		}
		approx := tensor.MatMul(tensor.MatMul(u2, sd), v2.Conj().Transpose(1, 0))
		return approx.Sub(a).Norm() / a.Norm()
	}
	uo, so, vo := eng.TruncSVD(a, rank)
	optimal := truncErr(uo, so, vo)
	fmt.Fprintf(w, "optimal (Eckart-Young) relative error: %.6f\n\n", optimal)

	t := NewTable("niter", "oversample", "rel_err", "excess_over_optimal")
	for _, niter := range []int{0, 1, 2, 3} {
		for _, over := range []int{0, 4, 8} {
			u2, s2, v2 := linalg.RandSVD(linalg.MatrixOperator{M: a}, rank, linalg.RandSVDOptions{
				NIter: niter, Oversample: over, Rng: rand.New(rand.NewSource(cfg.Seed + int64(10*niter+over))),
			})
			e := truncErr(u2, s2, v2)
			t.Add(niter, over, e, e/optimal-1)
		}
	}
	t.Print(w)
	fmt.Fprintln(w, "\nexpected: the plain sketch (niter=0, no oversampling) overshoots the optimal")
	fmt.Fprintln(w, "error; one power iteration or modest oversampling closes the gap, matching the")
	fmt.Fprintln(w, "defaults the library uses inside einsumsvd.")
}

// ExperimentAblationUpdate compares the two-site operator application
// algorithms: the direct contract-and-refactor update versus the QR-SVD
// update of paper Algorithm 1 (O(d^3 r^9)-class vs O(d^2 r^5)-class).
// It reports flops per update as the bond dimension grows and the fitted
// log-log slopes.
func ExperimentAblationUpdate(w io.Writer, cfg AblationConfig) {
	fmt.Fprintln(w, "Ablation: two-site update algorithm (paper Algorithm 1 vs direct)")
	fmt.Fprintln(w)
	eng := backend.NewDense()
	gate := quantum.ISwap()
	bonds := []int{2, 4, 6, 8, 10}
	t := NewTable("r", "method", "flops_per_update")
	slopes := map[string][]float64{}
	for _, r := range bonds {
		for _, method := range []struct {
			name string
			m    peps.UpdateMethod
		}{{"qr-svd", peps.UpdateQR}, {"direct", peps.UpdateDirect}} {
			rng := rand.New(rand.NewSource(cfg.Seed))
			state := peps.Random(eng, rng, 3, 3, 2, r)
			opts := peps.UpdateOptions{Rank: r, Method: method.m}
			fl := FlopsOf(func() {
				state.ApplyTwoSite(gate, state.SiteIndex(1, 0), state.SiteIndex(1, 1), opts)
			})
			t.Add(r, method.name, fmt.Sprintf("%d", fl))
			slopes[method.name] = append(slopes[method.name], float64(fl))
		}
	}
	t.Print(w)
	xs := make([]float64, len(bonds))
	for i, b := range bonds {
		xs[i] = float64(b)
	}
	fmt.Fprintln(w, "\nmeasured r-exponents (paper: direct ~ r^9-class, qr-svd ~ r^5-class):")
	st := NewTable("method", "slope d log(flops)/d log(r)")
	for _, name := range []string{"qr-svd", "direct"} {
		st.Add(name, logSlope(xs, slopes[name]))
	}
	st.Print(w)
}

// ExperimentAblationWeighted compares the plain per-bond simple update
// against the lambda-weighted (Jiang-Weng-Xiang) variant at equal rank on
// imaginary time evolution of the J1-J2 model — the weighted environment
// is the classic accuracy upgrade the paper's reference [24] introduced.
func ExperimentAblationWeighted(w io.Writer, cfg AblationConfig) {
	fmt.Fprintln(w, "Ablation: plain vs lambda-weighted simple update (2x2 J1-J2 ITE, 150 steps)")
	fmt.Fprintln(w)
	obs := quantum.J1J2Heisenberg(2, 2, quantum.PaperJ1J2Params())
	eng := backend.NewDense()
	rng := rand.New(rand.NewSource(cfg.Seed))
	exactE, _ := statevector.GroundState(obs, 4, rng)
	exact := exactE / 4
	t := NewTable("rank", "update", "energy_per_site", "gap_to_exact")
	for _, r := range []int{1, 2, 3} {
		for _, weighted := range []bool{false, true} {
			state := ite.PlusState(peps.ComputationalZeros(eng, 2, 2))
			res := ite.Evolve(state, obs, ite.Options{
				Tau: 0.05, Steps: 150, EvolutionRank: r, ContractionRank: r * r,
				Strategy: einsumsvd.Explicit{}, MeasureEvery: 150, WeightedUpdate: weighted,
			})
			name := "plain"
			if weighted {
				name = "weighted"
			}
			e := res.Energies[len(res.Energies)-1]
			t.Add(r, name, e, e-exact)
		}
	}
	t.Print(w)
	fmt.Fprintf(w, "\nexact ground state energy per site: %.4f\n", exact)
	fmt.Fprintln(w, "expected: the weighted environment closes most of the gap at equal rank.")
}

// ExperimentAblationCanonical compares simple-update sigma placement:
// balanced sqrt(sigma) on both factors versus all of sigma on one side,
// measuring ITE accuracy on the 2x2 TFI model.
func ExperimentAblationCanonical(w io.Writer, cfg AblationConfig) {
	fmt.Fprintln(w, "Ablation: einsumsvd sigma placement in truncated gate updates")
	fmt.Fprintln(w)
	obs := quantum.TransverseFieldIsing(2, 2, -1, -3.5)
	eng := backend.NewDense()
	t := NewTable("sigma_mode", "final_energy_per_site")
	for _, mode := range []struct {
		name string
		m    einsumsvd.SigmaMode
	}{{"both(sqrt)", einsumsvd.SigmaBoth}, {"right", einsumsvd.SigmaRight}, {"left", einsumsvd.SigmaLeft}} {
		state := peps.ComputationalZeros(eng, 2, 2)
		for s := 0; s < 4; s++ {
			state.ApplyOneSite(quantum.H(), s)
		}
		gates := obs.TrotterGates(complex(-0.05, 0))
		opts := peps.UpdateOptions{
			Rank: 2, Method: peps.UpdateQR, Normalize: true,
			Strategy: einsumsvd.Explicit{Mode: mode.m},
		}
		for step := 0; step < 60; step++ {
			state.ApplyCircuit(gates, opts)
		}
		e := state.EnergyPerSite(obs, peps.ExpectationOptions{M: 8, Strategy: einsumsvd.Explicit{}})
		t.Add(mode.name, e)
	}
	t.Print(w)
	fmt.Fprintln(w, "\nexpected: all placements give similar fixed points on this gapped model;")
	fmt.Fprintln(w, "the balanced split keeps site norms even, which matters for long evolutions.")
}
