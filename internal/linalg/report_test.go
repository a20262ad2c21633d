package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"gokoala/internal/health"
	"gokoala/internal/tensor"
)

// maxOffUnitary returns max |Q*Q - I| over entries, the orthonormality
// defect of the columns of q.
func maxOffUnitary(q *tensor.Dense) float64 {
	g := tensor.MatMul(q.Conj().Transpose(1, 0), q)
	n := g.Dim(0)
	worst := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if d := cmplx.Abs(g.At(i, j) - want); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func maxAbsDiff(a, b *tensor.Dense) float64 {
	ad, bd := a.Data(), b.Data()
	worst := 0.0
	for i := range ad {
		if d := cmplx.Abs(ad[i] - bd[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestSVDReportSurfacesNonConvergence(t *testing.T) {
	// Regression: the Jacobi iteration used to exhaust maxJacobiSweeps
	// silently, returning non-orthogonal factors as if all was well. Starve
	// the sweep budget on a matrix with a clustered (near-defective)
	// spectrum and demand the failure is reported and counted.
	defer func() { maxJacobiSweeps = 60 }()
	health.ResetCounters()
	rng := rand.New(rand.NewSource(5))
	// Near-defective: I + small random perturbation has singular values
	// clustered at 1, the slow case for one-sided Jacobi.
	n := 10
	a := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := complex(0.05*(2*rng.Float64()-1), 0.05*(2*rng.Float64()-1))
			if i == j {
				v += 1
			}
			a.Set(v, i, j)
		}
	}

	maxJacobiSweeps = 1
	_, _, _, rep := SVDReport(a)
	if rep.Converged {
		t.Fatal("one sweep reported converged on a clustered spectrum")
	}
	if rep.Residual <= 0 {
		t.Fatalf("non-converged report has residual %g, want > 0", rep.Residual)
	}
	if got := health.Nonconverged(); got != 1 {
		t.Fatalf("health.Nonconverged = %d after starved SVD, want 1", got)
	}

	// With the full budget the same matrix converges and the factors
	// reconstruct it.
	maxJacobiSweeps = 60
	health.ResetCounters()
	u, s, v, rep := SVDReport(a)
	if !rep.Converged {
		t.Fatalf("full budget did not converge (sweeps %d, residual %g)", rep.Sweeps, rep.Residual)
	}
	if got := health.Nonconverged(); got != 0 {
		t.Fatalf("converged SVD counted %d non-convergences", got)
	}
	sm := tensor.New(len(s), len(s))
	for i, x := range s {
		sm.Set(complex(x, 0), i, i)
	}
	recon := tensor.MatMul(tensor.MatMul(u, sm), v.Conj().Transpose(1, 0))
	if d := maxAbsDiff(recon, a); d > 1e-10 {
		t.Fatalf("reconstruction off by %g", d)
	}
}

func TestEigHReportConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 6
	a := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := complex(2*rng.Float64()-1, 2*rng.Float64()-1)
			if i == j {
				v = complex(real(v), 0)
			}
			a.Set(v, i, j)
			a.Set(cmplx.Conj(v), j, i)
		}
	}
	_, _, rep := EigHReport(a)
	if !rep.Converged {
		t.Fatalf("random Hermitian did not converge: %+v", rep)
	}
	if rep.Residual > eigTol {
		t.Fatalf("converged residual %g above tolerance", rep.Residual)
	}
}

func TestGramFactorsRejectPastKappa2(t *testing.T) {
	// Columns e0 and e0 + 1e-8 e1: kappa^2 ~ 4e16, far past the 1e12
	// threshold — the Gram method cannot resolve the second direction,
	// so the factors must be refused for the caller to degrade to QR.
	m := 6
	a := tensor.New(m, 2)
	a.Set(1, 0, 0)
	a.Set(1, 0, 1)
	a.Set(complex(1e-8, 0), 1, 1)
	gram := func(x *tensor.Dense) *tensor.Dense { return tensor.MatMul(x.Conj().Transpose(1, 0), x) }
	if r, p, ok := GramFactors(gram(a)); ok || r != nil || p != nil {
		t.Fatalf("kappa^2 past %g accepted", health.Kappa2Max())
	}

	// A well-conditioned matrix stays on the Gram path.
	rng := rand.New(rand.NewSource(7))
	b := tensor.Rand(rng, 8, 3)
	r2, p2, ok := GramFactors(gram(b))
	if !ok {
		t.Fatal("well-conditioned input rejected")
	}
	q2 := tensor.MatMul(b, p2)
	if d := maxOffUnitary(q2); d > 1e-10 {
		t.Fatalf("Gram Q orthonormality defect %g", d)
	}
	if d := maxAbsDiff(tensor.MatMul(q2, r2), b); d > 1e-10 {
		t.Fatalf("Gram reconstruction off by %g", d)
	}
}

func TestRandSVDReportDetectsMissedSubspace(t *testing.T) {
	// A flat spectrum (identity) offers a rank-2 sketch only 2 of 6 equal
	// directions: the probe residual must be order one and fail the
	// default tolerance.
	n := 6
	id := tensor.New(n, n)
	for i := 0; i < n; i++ {
		id.Set(1, i, i)
	}
	op := MatrixOperator{M: id}
	opts := RandSVDOptions{NIter: 0, Oversample: 0, Rng: rand.New(rand.NewSource(8))}
	_, _, _, rep := RandSVDReport(op, 2, opts, 0)
	if rep.Converged {
		t.Fatalf("flat spectrum at rank 2 reported converged (residual %g)", rep.Residual)
	}
	if rep.Residual < health.DefaultSubspaceTol {
		t.Fatalf("missed-subspace residual %g below tolerance %g", rep.Residual, health.DefaultSubspaceTol)
	}

	// A sharply decaying spectrum is captured: residual near the discarded
	// weight, far below tolerance.
	d := tensor.New(n, n)
	diag := []float64{3, 2, 1e-8, 1e-8, 1e-8, 1e-8}
	for i := 0; i < n; i++ {
		d.Set(complex(diag[i], 0), i, i)
	}
	opts = RandSVDOptions{NIter: 2, Oversample: 2, Rng: rand.New(rand.NewSource(9))}
	_, s, _, rep2 := RandSVDReport(MatrixOperator{M: d}, 2, opts, 0)
	if !rep2.Converged {
		t.Fatalf("low-rank operator reported non-converged (residual %g)", rep2.Residual)
	}
	if rep2.Residual > 1e-6 {
		t.Fatalf("healthy residual %g, want ~1e-8", rep2.Residual)
	}
	if math.Abs(s[0]-3) > 1e-8 || math.Abs(s[1]-2) > 1e-8 {
		t.Fatalf("leading singular values %v, want [3 2]", s)
	}
}

func TestRandSVDReportProbeDoesNotConsumeCallerRng(t *testing.T) {
	// The probe must draw from its own fixed-seed stream: RandSVD and
	// RandSVDReport with same-seeded rngs must produce identical factors,
	// and the caller's rng must sit at the same position afterwards.
	n := 8
	a := tensor.Rand(rand.New(rand.NewSource(10)), n, n)
	op := MatrixOperator{M: a}
	r1 := rand.New(rand.NewSource(11))
	r2 := rand.New(rand.NewSource(11))
	u1, s1, v1 := RandSVD(op, 3, RandSVDOptions{NIter: 1, Oversample: 2, Rng: r1})
	u2, s2, v2, _ := RandSVDReport(op, 3, RandSVDOptions{NIter: 1, Oversample: 2, Rng: r2}, 0)
	if maxAbsDiff(u1, u2) != 0 || maxAbsDiff(v1, v2) != 0 {
		t.Fatal("probe changed the factors")
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("probe changed the singular values")
		}
	}
	if r1.Int63() != r2.Int63() {
		t.Fatal("probe consumed the caller's random stream")
	}
}

func TestLanczosReportConverges(t *testing.T) {
	health.ResetCounters()
	// Diagonal operator: ground state is e_min with eigenvalue -2.
	diag := []float64{-2, -1, 0, 1, 2, 3}
	n := len(diag)
	matvec := func(x []complex128) []complex128 {
		out := make([]complex128, n)
		for i := range x {
			out[i] = complex(diag[i], 0) * x[i]
		}
		return out
	}
	eval, _, rep := LanczosReport(matvec, n, n, 1e-10, rand.New(rand.NewSource(12)))
	if !rep.Converged {
		t.Fatalf("Lanczos on a 6-dim operator did not converge: %+v", rep)
	}
	if math.Abs(eval-(-2)) > 1e-8 {
		t.Fatalf("ground energy %g, want -2", eval)
	}
	// Starved budget with a tolerance it cannot meet: must be counted.
	health.ResetCounters()
	_, _, rep = LanczosReport(matvec, n, 2, 1e-30, rand.New(rand.NewSource(13)))
	if rep.Converged {
		t.Fatal("2 iterations at tol 1e-30 reported converged")
	}
	if got := health.Nonconverged(); got != 1 {
		t.Fatalf("health.Nonconverged = %d after starved Lanczos, want 1", got)
	}
}
