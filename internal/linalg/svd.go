package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"sync/atomic"

	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/pool"
	"gokoala/internal/tensor"
)

// svdFlops is the standard LAPACK-equivalent complex-flop estimate for a
// thin SVD of an m-by-n matrix (GESVD-style, ~14 m n min(m,n) fused
// multiply-adds). The one-sided Jacobi iteration used here performs more
// raw arithmetic than a production bidiagonalization kernel; charging the
// global counter with the standard count keeps cost models and empirical
// complexity fits representative of a production implementation rather
// than of Jacobi's constant factor. SVDReport charges it once per call;
// the Jacobi sweeps themselves charge nothing, so the count is a pure
// function of the shape at any worker count.
func svdFlops(m, n int) int64 {
	k := int64(min(m, n))
	return 14 * int64(m) * int64(n) * k / 2
}

// SVDFlops exposes the analytic thin-SVD flop count charged by SVD, so
// cost models (backend.Dist) can account a factorization by shape.
func SVDFlops(m, n int) int64 { return svdFlops(m, n) }

// SVD computes the thin singular value decomposition A = U diag(s) V* of
// an m-by-n matrix using the one-sided (Hestenes) Jacobi method. U is
// m-by-k, s has length k, and V is n-by-k with k = min(m, n). Singular
// values are returned in descending order. One-sided Jacobi computes even
// the small singular values to high relative accuracy, which matters for
// the truncation decisions in PEPS compression.
func SVD(a *tensor.Dense) (u *tensor.Dense, s []float64, v *tensor.Dense) {
	u, s, v, _ = SVDReport(a)
	return u, s, v
}

// SVDReport is SVD plus the convergence report of the Jacobi iteration.
// A non-converged report (sweep budget exhausted before every column
// pair met tolerance) is recorded in health.nonconverged; the factors
// are still returned — they are the best available orthogonal set — so
// callers choose between using and rejecting them.
func SVDReport(a *tensor.Dense) (u *tensor.Dense, s []float64, v *tensor.Dense, rep Report) {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("linalg: SVD requires a matrix, got rank %d", a.Rank()))
	}
	tensor.AddFlops(svdFlops(a.Dim(0), a.Dim(1)))
	u, s, v, rep = svdJacobi(a)
	if !rep.Converged {
		health.CountNonconverged("linalg.svd")
	}
	obs.ObserveHist("solver.sweeps", obs.Pow2Bounds, float64(rep.Sweeps),
		obs.Label{Key: "solver", Value: "jacobi_svd"})
	return u, s, v, rep
}

// svdJacobi is the one-sided Jacobi worker behind SVD.
func svdJacobi(a *tensor.Dense) (u *tensor.Dense, s []float64, v *tensor.Dense, rep Report) {
	m, n := a.Dim(0), a.Dim(1)
	if m < n {
		// SVD(A) from SVD(A*): A = U S V*  <=>  A* = V S U*.
		vv, s, uu, rep := svdJacobi(a.Conj().Transpose(1, 0))
		return uu, s, vv, rep
	}

	// Column-major copy of A: cols[j] is the j-th column, length m.
	cols := make([][]complex128, n)
	ad := a.Data()
	for j := 0; j < n; j++ {
		cols[j] = make([]complex128, m)
		for i := 0; i < m; i++ {
			cols[j][i] = ad[i*n+j]
		}
	}
	// V accumulated as columns too.
	vcols := make([][]complex128, n)
	for j := 0; j < n; j++ {
		vcols[j] = make([]complex128, n)
		vcols[j][j] = 1
	}

	const tol = 1e-14
	// Round-robin tournament (circle method) pair ordering: each of the
	// nc-1 rounds in a sweep pairs every column exactly once, so the
	// nc/2 rotations of a round touch pairwise-disjoint columns and run
	// concurrently on the worker pool. The schedule is fixed before the
	// sweep starts, so the result is bit-identical for any worker count.
	nc := n
	if nc%2 == 1 {
		nc++ // odd column count: one slot sits out each round
	}
	pos := make([]int, nc)
	for i := range pos {
		pos[i] = i
	}
	grain := int(65536/int64(7*m)) + 1
	// Columns with norm below eps times the largest column norm carry
	// singular values beneath float64 relative accuracy; their partially
	// underflowed Gram entries are inconsistent (the computed correlation
	// can exceed 1), so rotating against them churns forever without
	// converging. Treat them as numerical zeros: skip their rotations and
	// exclude them from the residual scan. The floor is refreshed each
	// sweep because rotations can grow the largest column toward sigma_max.
	const eps = 2.220446049250313e-16
	zeroFloor := func() float64 {
		maxAlpha := 0.0
		for j := 0; j < n; j++ {
			if a := normSq(cols[j]); a > maxAlpha {
				maxAlpha = a
			}
		}
		return eps * eps * maxAlpha
	}
	var floor float64
	var rotated atomic.Bool
	rotated.Store(true) // n <= 1 never sweeps yet is trivially converged
	for rep.Sweeps = 0; rep.Sweeps < maxJacobiSweeps; rep.Sweeps++ {
		rotated.Store(false)
		floor = zeroFloor()
		for round := 0; round < nc-1; round++ {
			pool.For(nc/2, grain, func(lo, hi int) {
				for w := lo; w < hi; w++ {
					p, q := pos[w], pos[nc-1-w]
					if p >= n || q >= n {
						continue // the padded slot of an odd tournament
					}
					if p > q {
						p, q = q, p
					}
					alpha, beta, gamma := colGram(cols[p], cols[q])
					if alpha <= floor || beta <= floor ||
						cmplx.Abs(gamma) <= tol*math.Sqrt(alpha)*math.Sqrt(beta) {
						continue
					}
					rotated.Store(true)
					c, sn, phase := jacobiRotation(alpha, beta, gamma)
					tensor.JacobiRotate(cols[p], cols[q], c, sn, phase)
					tensor.JacobiRotate(vcols[p], vcols[q], c, sn, phase)
				}
			})
			// Advance the circle: slot 0 stays, the rest shift one step.
			last := pos[nc-1]
			copy(pos[2:], pos[1:nc-1])
			pos[1] = last
		}
		if !rotated.Load() {
			break
		}
	}
	// Converged iff a full sweep finished without any rotation. When the
	// sweep budget ran out, measure how far from orthogonal the columns
	// still are: the largest |<p,q>| / (||p|| ||q||) over column pairs
	// (the quantity each rotation drives below tol). This scan is O(n^2 m)
	// but only runs on the rare non-converged exit.
	rep.Converged = !rotated.Load()
	if !rep.Converged {
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				alpha, beta, gamma := colGram(cols[p], cols[q])
				if alpha > floor && beta > floor {
					if r := cmplx.Abs(gamma) / (math.Sqrt(alpha) * math.Sqrt(beta)); r > rep.Residual {
						rep.Residual = r
					}
				}
			}
		}
	}

	// Singular values are the column norms; sort descending.
	type pair struct {
		s float64
		j int
	}
	pairs := make([]pair, n)
	for j := 0; j < n; j++ {
		pairs[j] = pair{norm2(cols[j]), j}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].s > pairs[j].s })

	k := n // thin: k = min(m,n) = n here
	u = tensor.New(m, k)
	v = tensor.New(n, k)
	s = make([]float64, k)
	ud, vd := u.Data(), v.Data()
	smax := pairs[0].s
	for col, pr := range pairs {
		s[col] = pr.s
		src := cols[pr.j]
		if pr.s > 1e-300 && pr.s > 1e-16*smax {
			inv := complex(1/pr.s, 0)
			for i := 0; i < m; i++ {
				ud[i*k+col] = src[i] * inv
			}
		} else {
			// Numerically zero singular value: complete U with a unit
			// vector orthogonal to the previous columns (deterministic
			// Gram-Schmidt over coordinate vectors).
			fillOrthoColumn(ud, m, k, col)
		}
		vsrc := vcols[pr.j]
		for i := 0; i < n; i++ {
			vd[i*k+col] = vsrc[i]
		}
	}
	return u, s, v, rep
}

// colGram returns ||p||^2, ||q||^2 and <p, q> = p* q.
func colGram(p, q []complex128) (alpha, beta float64, gamma complex128) {
	for i := range p {
		alpha += real(p[i])*real(p[i]) + imag(p[i])*imag(p[i])
		beta += real(q[i])*real(q[i]) + imag(q[i])*imag(q[i])
		gamma += cmplx.Conj(p[i]) * q[i]
	}
	return alpha, beta, gamma
}

// fillOrthoColumn writes into column col of the row-major m-by-k matrix a
// unit vector orthogonal to columns 0..col-1.
func fillOrthoColumn(d []complex128, m, k, col int) {
	for trial := 0; trial < m; trial++ {
		// candidate basis vector e_trial
		cand := make([]complex128, m)
		cand[trial] = 1
		for c := 0; c < col; c++ {
			var dot complex128
			for i := 0; i < m; i++ {
				dot += cmplx.Conj(d[i*k+c]) * cand[i]
			}
			for i := 0; i < m; i++ {
				cand[i] -= dot * d[i*k+c]
			}
		}
		if nn := norm2(cand); nn > 1e-6 {
			inv := complex(1/nn, 0)
			for i := 0; i < m; i++ {
				d[i*k+col] = cand[i] * inv
			}
			return
		}
	}
	// Unreachable for col < m, but leave the column zero rather than panic.
}

// TruncatedSVD computes the best rank-r approximation factors of A:
// U (m-by-r), s (length r), V (n-by-r) with r = min(rank, min(m, n)).
// Where the singular values should be attached is the caller's choice
// (see einsumsvd.SigmaMode for the conventions the PEPS layer uses).
func TruncatedSVD(a *tensor.Dense, rank int) (u *tensor.Dense, s []float64, v *tensor.Dense) {
	uf, sf, vf := SVD(a)
	k := min(rank, len(sf))
	if k <= 0 {
		panic(fmt.Sprintf("linalg: TruncatedSVD rank %d invalid", rank))
	}
	if obs.Enabled() {
		te := TruncError(sf, k)
		obs.Observe("svd.trunc_error", te)
		obs.ObserveHist("svd.trunc_error_hist", obs.LogBounds, te)
	}
	return sliceCols(uf, k), sf[:k], sliceCols(vf, k)
}

// sliceCols returns the first k columns of a row-major matrix.
func sliceCols(a *tensor.Dense, k int) *tensor.Dense {
	m, n := a.Dim(0), a.Dim(1)
	if k == n {
		return a
	}
	out := tensor.New(m, k)
	ad, od := a.Data(), out.Data()
	for i := 0; i < m; i++ {
		copy(od[i*k:(i+1)*k], ad[i*n:i*n+k])
	}
	return out
}

// TruncError returns the relative Frobenius truncation error implied by
// keeping the first k of the given (descending) singular values.
func TruncError(s []float64, k int) float64 {
	var kept, all float64
	for i, x := range s {
		all += x * x
		if i < k {
			kept += x * x
		}
	}
	if all == 0 {
		return 0
	}
	return math.Sqrt((all - kept) / all)
}
