package linalg

import (
	"math"

	"gokoala/internal/health"
	"gokoala/internal/tensor"
)

// GramFactors computes, from the Gram matrix G = A* A of a tall m-by-n
// matrix A, the factors of the reshape-avoiding QR of paper Algorithm 5:
//
//	G = X diag(w) X*      (Hermitian eigendecomposition, n-by-n)
//	R = sqrt(w) X*        so that A = Q R with
//	P = X diag(1/sqrt(w)) and Q = A P
//
// The caller forms Q = A P itself. Q has orthonormal columns spanning
// range(A) and R is n-by-n (not triangular; for PEPS it only matters
// that it is a small square factor). In distributed memory only the
// n-by-n Gram matrix leaves the large distributed tensor, which is what
// removes the distributed reshape bottleneck in the paper's Cyclops
// backend.
//
// The eigenvalues of G are the squared singular values of A, so
// wmax/wmin estimates κ²(A). ok is false when that exceeds
// health.Kappa2Max: the squared conditioning has destroyed the small
// directions in double precision, the factors are unusable, and the
// caller must degrade to Householder QR, which never squares κ.
// Eigenvalues below a relative cutoff are dropped (zero column in Q)
// so rank-deficient inputs do not produce Inf/NaN.
func GramFactors(g *tensor.Dense) (r, p *tensor.Dense, ok bool) {
	w, x := EigH(g)
	n := g.Dim(0)
	if n > 0 && health.GramIllConditioned(w[n-1], w[0]) {
		return nil, nil, false
	}
	wmax := 0.0
	for _, v := range w {
		if v > wmax {
			wmax = v
		}
	}
	if wmax == 0 {
		wmax = 1
	}
	cutoff := 1e-24 * wmax
	sq := tensor.New(n, n)  // diag(sqrt(w))
	isq := tensor.New(n, n) // diag(1/sqrt(w)), zero for dropped directions
	for i := 0; i < n; i++ {
		wi := w[i]
		if wi < 0 {
			wi = 0
		}
		s := math.Sqrt(wi)
		sq.Set(complex(s, 0), i, i)
		if wi >= cutoff {
			// Directions below the cutoff carry no range of A: drop them
			// instead of amplifying rounding noise by 1/sqrt(w).
			isq.Set(complex(1/s, 0), i, i)
		}
	}
	xh := x.Conj().Transpose(1, 0)
	r = tensor.MatMul(sq, xh)
	p = tensor.MatMul(x, isq)
	return r, p, true
}
