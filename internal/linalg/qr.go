// Package linalg provides the dense complex numerical linear algebra the
// PEPS algorithms are built on: Householder QR, Hermitian eigendecomposition
// by the cyclic Jacobi method, singular value decomposition by one-sided
// (Hestenes) Jacobi, truncated and randomized SVD (paper Algorithm 4),
// reshape-avoiding Gram-matrix orthogonalization (paper Algorithm 5),
// Hermitian matrix exponentials for Trotter gates, and a Lanczos
// eigensolver for exact reference ground states.
//
// All routines operate on rank-2 tensors from the tensor package and are
// written from scratch against the stdlib, playing the role LAPACK and
// ScaLAPACK play for the original Koala library.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"

	"gokoala/internal/tensor"
)

// QRFlops is the analytic flop count QR charges for an m-by-n input: each
// of the k = min(m, n) reflectors is applied once to the trailing
// submatrix (2 (m-j) n) and once while accumulating thin Q (2 (m-j) k),
// summing to 2 (n+k) (m k - k(k-1)/2). Exposed so cost models can charge
// a factorization by shape.
func QRFlops(m, n int) int64 {
	k := int64(min(m, n))
	s := int64(m)*k - k*(k-1)/2
	return 2 * (int64(n) + k) * s
}

// QR computes the thin QR factorization A = Q R of an m-by-n matrix using
// complex Householder reflections. Q is m-by-k with orthonormal columns and
// R is k-by-n upper triangular, where k = min(m, n).
func QR(a *tensor.Dense) (q, r *tensor.Dense) {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("linalg: QR requires a matrix, got rank %d", a.Rank()))
	}
	m, n := a.Dim(0), a.Dim(1)
	k := min(m, n)
	// Charged once by shape: a reflector skipped on a numerically zero
	// column still counts, so the charge never depends on the data.
	tensor.AddFlops(QRFlops(m, n))
	// Work on a copy of A; reflectors stored as columns of vs.
	w := a.Clone()
	wd := w.Data()
	vs := make([][]complex128, 0, k)
	taus := make([]float64, 0, k)

	for j := 0; j < k; j++ {
		// x = w[j:m, j]
		x := make([]complex128, m-j)
		maxAbs := 0.0
		for i := j; i < m; i++ {
			x[i-j] = wd[i*n+j]
			if a := cmplx.Abs(x[i-j]); a > maxAbs {
				maxAbs = a
			}
		}
		// The Householder reflector H = I - tau v v* is invariant under
		// scaling of v, so build it from the column scaled to O(1). This
		// keeps ||v||^2 out of the subnormal range where 2/||v||^2 would
		// overflow (columns with entries ~1e-160 occur in near-rank-
		// deficient PEPS carries). Columns too tiny to scale safely are
		// treated as zero: the reflector is skipped, leaving only
		// negligible sub-diagonal residue in R.
		if maxAbs < 1e-290 {
			vs = append(vs, nil)
			taus = append(taus, 0)
			continue
		}
		invScale := complex(1/maxAbs, 0)
		for i := range x {
			x[i] *= invScale
		}
		nx := norm2(x)
		if nx == 0 {
			vs = append(vs, nil)
			taus = append(taus, 0)
			continue
		}
		phase := complex(1, 0)
		if x[0] != 0 {
			phase = x[0] / complex(cmplx.Abs(x[0]), 0)
		}
		alpha := -phase * complex(nx, 0)
		v := append([]complex128(nil), x...)
		v[0] -= alpha
		nv2 := normSq(v)
		if nv2 == 0 {
			vs = append(vs, nil)
			taus = append(taus, 0)
			continue
		}
		tau := 2 / nv2
		// Apply H = I - tau v v* to w[j:m, j:n].
		applyReflectorLeft(wd, m, n, j, v, tau)
		vs = append(vs, v)
		taus = append(taus, tau)
	}

	r = tensor.New(k, n)
	rd := r.Data()
	for i := 0; i < k; i++ {
		for j := i; j < n; j++ {
			rd[i*n+j] = wd[i*n+j]
		}
	}

	// Build thin Q by applying reflectors in reverse to the first k columns
	// of the identity.
	q = tensor.New(m, k)
	qd := q.Data()
	for i := 0; i < k; i++ {
		qd[i*k+i] = 1
	}
	for j := k - 1; j >= 0; j-- {
		if vs[j] == nil {
			continue
		}
		applyReflectorLeft(qd, m, k, j, vs[j], taus[j])
	}
	return q, r
}

// applyReflectorLeft applies H = I - tau v v* to the submatrix
// a[j:m, 0:n]... more precisely to rows j..m-1, all columns. v has length
// m-j. a is row-major m-by-n.
func applyReflectorLeft(a []complex128, m, n, j int, v []complex128, tau float64) {
	rows := m - j
	// wvec = v* A[j:, :]  (length n)
	wvec := make([]complex128, n)
	for i := 0; i < rows; i++ {
		vi := cmplx.Conj(v[i])
		if vi == 0 {
			continue
		}
		row := a[(j+i)*n : (j+i+1)*n]
		for c := 0; c < n; c++ {
			wvec[c] += vi * row[c]
		}
	}
	// A[j:, :] -= tau * v wvec
	ct := complex(tau, 0)
	for i := 0; i < rows; i++ {
		f := ct * v[i]
		if f == 0 {
			continue
		}
		row := a[(j+i)*n : (j+i+1)*n]
		for c := 0; c < n; c++ {
			row[c] -= f * wvec[c]
		}
	}
}

func norm2(v []complex128) float64 { return math.Sqrt(normSq(v)) }

func normSq(v []complex128) float64 {
	var s float64
	for _, x := range v {
		re, im := real(x), imag(x)
		s += re*re + im*im
	}
	return s
}

// QRSplit matricizes tensor t with its first leftAxes axes as rows and the
// rest as columns, computes the thin QR, and folds the factors back:
// Q has shape leftShape + [k], R has shape [k] + rightShape.
// This is the tensor-level QR used by the QR-SVD update (paper Alg. 1).
func QRSplit(t *tensor.Dense, leftAxes int) (q, r *tensor.Dense) {
	shape := t.Shape()
	if leftAxes <= 0 || leftAxes >= len(shape) {
		panic(fmt.Sprintf("linalg: QRSplit leftAxes %d out of range for rank %d", leftAxes, len(shape)))
	}
	rows, cols := 1, 1
	for i, d := range shape {
		if i < leftAxes {
			rows *= d
		} else {
			cols *= d
		}
	}
	qm, rm := QR(t.Reshape(rows, cols))
	k := qm.Dim(1)
	qShape := append(append([]int{}, shape[:leftAxes]...), k)
	rShape := append([]int{k}, shape[leftAxes:]...)
	return qm.Reshape(qShape...), rm.Reshape(rShape...)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
