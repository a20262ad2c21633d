package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"gokoala/internal/einsum"
	"gokoala/internal/tensor"
)

func randHermitian(rng *rand.Rand, n int) *tensor.Dense {
	a := tensor.Rand(rng, n, n)
	return a.Add(a.Conj().Transpose(1, 0)).Scale(0.5)
}

func checkOrthonormalCols(t *testing.T, q *tensor.Dense, tol float64) {
	t.Helper()
	qhq := tensor.MatMul(q.Conj().Transpose(1, 0), q)
	k := q.Dim(1)
	if !tensor.AllClose(qhq, tensor.Eye(k), 0, tol) {
		t.Fatalf("columns not orthonormal: max dev %g", qhq.Sub(tensor.Eye(k)).MaxAbs())
	}
}

// --- QR ---

func TestQRReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{5, 3}, {3, 5}, {6, 6}, {1, 4}, {40, 12}} {
		a := tensor.Rand(rng, dims[0], dims[1])
		q, r := QR(a)
		k := min(dims[0], dims[1])
		if q.Dim(0) != dims[0] || q.Dim(1) != k || r.Dim(0) != k || r.Dim(1) != dims[1] {
			t.Fatalf("dims %v: wrong factor shapes %v %v", dims, q.Shape(), r.Shape())
		}
		checkOrthonormalCols(t, q, 1e-12)
		if !tensor.AllClose(tensor.MatMul(q, r), a, 1e-11, 1e-11) {
			t.Fatalf("dims %v: QR != A", dims)
		}
		// R upper triangular
		for i := 0; i < k; i++ {
			for j := 0; j < i && j < dims[1]; j++ {
				if cmplx.Abs(r.At(i, j)) > 1e-12 {
					t.Fatalf("R not upper triangular at %d,%d", i, j)
				}
			}
		}
	}
}

func TestQRRankDeficient(t *testing.T) {
	// Two identical columns.
	a := tensor.FromData([]complex128{1, 1, 2, 2, 3, 3}, 3, 2)
	q, r := QR(a)
	if !tensor.AllClose(tensor.MatMul(q, r), a, 1e-12, 1e-12) {
		t.Fatal("QR reconstruction failed for rank-deficient input")
	}
}

func TestQRSplitShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.Rand(rng, 2, 3, 4, 5)
	q, r := QRSplit(a, 2)
	if !tensor.SameShape(q.Shape(), []int{2, 3, 6}) {
		t.Fatalf("q shape %v", q.Shape())
	}
	if !tensor.SameShape(r.Shape(), []int{6, 4, 5}) {
		t.Fatalf("r shape %v", r.Shape())
	}
	// q x r contracts back to a
	back := einsum.MustContract("abk,kcd->abcd", q, r)
	if !tensor.AllClose(back, a, 1e-11, 1e-11) {
		t.Fatal("QRSplit does not reconstruct")
	}
}

// --- EigH ---

func TestEigHPauliX(t *testing.T) {
	x := tensor.FromData([]complex128{0, 1, 1, 0}, 2, 2)
	w, v := EigH(x)
	if math.Abs(w[0]+1) > 1e-13 || math.Abs(w[1]-1) > 1e-13 {
		t.Fatalf("eigenvalues %v, want [-1, 1]", w)
	}
	checkOrthonormalCols(t, v, 1e-13)
}

func TestEigHReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 16, 40} {
		a := randHermitian(rng, n)
		w, v := EigH(a)
		for i := 1; i < n; i++ {
			if w[i] < w[i-1] {
				t.Fatalf("n=%d: eigenvalues not ascending: %v", n, w)
			}
		}
		checkOrthonormalCols(t, v, 1e-11)
		d := tensor.New(n, n)
		for i := 0; i < n; i++ {
			d.Set(complex(w[i], 0), i, i)
		}
		back := tensor.MatMul(tensor.MatMul(v, d), v.Conj().Transpose(1, 0))
		if !tensor.AllClose(back, a, 1e-10, 1e-10) {
			t.Fatalf("n=%d: V diag(w) V* != A, dev %g", n, back.Sub(a).MaxAbs())
		}
	}
}

func TestEigHDiagonalInput(t *testing.T) {
	a := tensor.New(3, 3)
	a.Set(3, 0, 0)
	a.Set(-1, 1, 1)
	a.Set(2, 2, 2)
	w, _ := EigH(a)
	want := []float64{-1, 2, 3}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-13 {
			t.Fatalf("w = %v", w)
		}
	}
}

func TestEigHTraceInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		a := randHermitian(rng, n)
		var tr float64
		for i := 0; i < n; i++ {
			tr += real(a.At(i, i))
		}
		w, _ := EigH(a)
		var sum float64
		for _, x := range w {
			sum += x
		}
		if math.Abs(tr-sum) > 1e-10*(1+math.Abs(tr)) {
			t.Fatalf("trace %g != eigenvalue sum %g", tr, sum)
		}
	}
}

// --- SVD ---

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{4, 4}, {8, 3}, {3, 8}, {1, 5}, {30, 20}} {
		a := tensor.Rand(rng, dims[0], dims[1])
		u, s, v := SVD(a)
		k := min(dims[0], dims[1])
		if len(s) != k {
			t.Fatalf("dims %v: %d singular values, want %d", dims, len(s), k)
		}
		for i := 1; i < k; i++ {
			if s[i] > s[i-1]+1e-12 {
				t.Fatalf("dims %v: singular values not descending: %v", dims, s)
			}
		}
		checkOrthonormalCols(t, u, 1e-11)
		checkOrthonormalCols(t, v, 1e-11)
		// A = U diag(s) V*
		sd := tensor.New(k, k)
		for i := 0; i < k; i++ {
			sd.Set(complex(s[i], 0), i, i)
		}
		back := tensor.MatMul(tensor.MatMul(u, sd), v.Conj().Transpose(1, 0))
		if !tensor.AllClose(back, a, 1e-10, 1e-10) {
			t.Fatalf("dims %v: U S V* != A, dev %g", dims, back.Sub(a).MaxAbs())
		}
	}
}

func TestSVDMatchesGramEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := tensor.Rand(rng, 7, 5)
	_, s, _ := SVD(a)
	g := tensor.MatMul(a.Conj().Transpose(1, 0), a)
	w, _ := EigH(g)
	for i := 0; i < 5; i++ {
		if math.Abs(s[i]*s[i]-w[4-i]) > 1e-9 {
			t.Fatalf("sigma^2 %v vs gram eigenvalues %v", s, w)
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Rank-2 matrix in a 6x5 frame.
	b := tensor.Rand(rng, 6, 2)
	c := tensor.Rand(rng, 2, 5)
	a := tensor.MatMul(b, c)
	u, s, v := SVD(a)
	for i := 2; i < len(s); i++ {
		if s[i] > 1e-10*s[0] {
			t.Fatalf("trailing singular values should vanish: %v", s)
		}
	}
	checkOrthonormalCols(t, u, 1e-9)
	checkOrthonormalCols(t, v, 1e-9)
}

func TestSVDZeroMatrix(t *testing.T) {
	a := tensor.New(4, 3)
	u, s, _ := SVD(a)
	for _, x := range s {
		if x != 0 {
			t.Fatalf("singular values of zero matrix: %v", s)
		}
	}
	checkOrthonormalCols(t, u, 1e-12)
}

func TestTruncatedSVDOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := tensor.Rand(rng, 10, 8)
	u, s, v := TruncatedSVD(a, 3)
	if u.Dim(1) != 3 || len(s) != 3 || v.Dim(1) != 3 {
		t.Fatalf("truncation shapes wrong: %v %d %v", u.Shape(), len(s), v.Shape())
	}
	sd := tensor.New(3, 3)
	for i := 0; i < 3; i++ {
		sd.Set(complex(s[i], 0), i, i)
	}
	approx := tensor.MatMul(tensor.MatMul(u, sd), v.Conj().Transpose(1, 0))
	// Eckart-Young: error equals sqrt(sum of discarded sigma^2).
	_, sFull, _ := SVD(a)
	var want float64
	for i := 3; i < len(sFull); i++ {
		want += sFull[i] * sFull[i]
	}
	got := approx.Sub(a).Norm()
	if math.Abs(got-math.Sqrt(want)) > 1e-9 {
		t.Fatalf("truncation error %g, Eckart-Young %g", got, math.Sqrt(want))
	}
}

func TestTruncError(t *testing.T) {
	s := []float64{3, 4} // unsorted is fine for the formula
	got := TruncError(s, 1)
	if math.Abs(got-0.8) > 1e-14 {
		t.Fatalf("TruncError = %g, want 0.8", got)
	}
	if TruncError(nil, 0) != 0 {
		t.Fatal("empty TruncError should be 0")
	}
}

// --- Randomized SVD ---

func TestRandSVDExactOnLowRank(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := tensor.Rand(rng, 12, 3)
	c := tensor.Rand(rng, 3, 9)
	a := tensor.MatMul(b, c)
	for _, orth := range []OrthFunc{OrthQR, orthGram} {
		u, s, v := RandSVD(MatrixOperator{a}, 3, RandSVDOptions{NIter: 2, Oversample: 2, Orth: orth, Rng: rng})
		sd := tensor.New(3, 3)
		for i := 0; i < 3; i++ {
			sd.Set(complex(s[i], 0), i, i)
		}
		back := tensor.MatMul(tensor.MatMul(u, sd), v.Conj().Transpose(1, 0))
		if !tensor.AllClose(back, a, 1e-8, 1e-8) {
			t.Fatalf("RandSVD failed to recover rank-3 matrix exactly, dev %g", back.Sub(a).MaxAbs())
		}
		checkOrthonormalCols(t, u, 1e-9)
	}
}

func TestRandSVDMatchesTruncatedSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Matrix with sharply decaying spectrum so the sketch captures the top
	// subspace accurately.
	n := 10
	u0, _ := QR(tensor.Rand(rng, n, n))
	v0, _ := QR(tensor.Rand(rng, n, n))
	d := tensor.New(n, n)
	for i := 0; i < n; i++ {
		d.Set(complex(math.Pow(10, -float64(i)), 0), i, i)
	}
	a := tensor.MatMul(tensor.MatMul(u0, d), v0.Conj().Transpose(1, 0))
	_, sWant, _ := TruncatedSVD(a, 4)
	_, sGot, _ := RandSVD(MatrixOperator{a}, 4, RandSVDOptions{NIter: 3, Oversample: 3, Rng: rng})
	for i := range sWant {
		if math.Abs(sGot[i]-sWant[i]) > 1e-6*sWant[0] {
			t.Fatalf("singular values differ: %v vs %v", sGot, sWant)
		}
	}
}

func TestRandSVDRankClamped(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := tensor.Rand(rng, 4, 3)
	u, s, v := RandSVD(MatrixOperator{a}, 100, RandSVDOptions{NIter: 1, Rng: rng})
	if len(s) != 3 || u.Dim(1) != 3 || v.Dim(1) != 3 {
		t.Fatalf("rank not clamped: %d", len(s))
	}
}

// --- Gram factors (Algorithm 5) ---

// orthGram orthonormalizes through GramFactors the way backend.Dist's
// Gram variant does: Q = A P, degrading to Householder QR when the Gram
// matrix is too ill-conditioned (as the oversampled sketch of a
// low-rank matrix is).
func orthGram(a *tensor.Dense) *tensor.Dense {
	_, p, ok := GramFactors(tensor.MatMul(a.Conj().Transpose(1, 0), a))
	if !ok {
		return OrthQR(a)
	}
	return tensor.MatMul(a, p)
}

func TestGramFactorsProducesQR(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := tensor.Rand(rng, 20, 5)
	r, p, ok := GramFactors(tensor.MatMul(a.Conj().Transpose(1, 0), a))
	if !ok {
		t.Fatal("well-conditioned input rejected")
	}
	q := tensor.MatMul(a, p)
	checkOrthonormalCols(t, q, 1e-9)
	if !tensor.AllClose(tensor.MatMul(q, r), a, 1e-9, 1e-9) {
		t.Fatal("GramFactors: (A P) R != A")
	}
}

// --- Expm ---

func TestExpmHermitianPauliZ(t *testing.T) {
	z := tensor.FromData([]complex128{1, 0, 0, -1}, 2, 2)
	e := ExpmHermitian(z, -0.5)
	if cmplx.Abs(e.At(0, 0)-complex(math.Exp(-0.5), 0)) > 1e-13 {
		t.Fatalf("exp(-0.5 Z)[0,0] = %v", e.At(0, 0))
	}
	if cmplx.Abs(e.At(1, 1)-complex(math.Exp(0.5), 0)) > 1e-13 {
		t.Fatalf("exp(-0.5 Z)[1,1] = %v", e.At(1, 1))
	}
	if cmplx.Abs(e.At(0, 1)) > 1e-14 {
		t.Fatal("off-diagonal should vanish")
	}
}

func TestExpmHermitianUnitaryForImaginaryScale(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	h := randHermitian(rng, 4)
	u := ExpmHermitian(h, complex(0, -0.7))
	checkOrthonormalCols(t, u, 1e-11)
}

func TestExpmAdditivityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	h := randHermitian(rng, 3)
	lhs := ExpmHermitian(h, -0.3)
	rhs := tensor.MatMul(ExpmHermitian(h, -0.1), ExpmHermitian(h, -0.2))
	if !tensor.AllClose(lhs, rhs, 1e-10, 1e-10) {
		t.Fatal("exp((a+b)H) != exp(aH) exp(bH)")
	}
}

// --- Lanczos ---

func TestLanczosMatchesDenseEig(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 30
	a := randHermitian(rng, n)
	w, _ := EigH(a)
	matvec := func(x []complex128) []complex128 {
		v := tensor.MatVec(a, tensor.FromData(append([]complex128(nil), x...), n))
		return v.Data()
	}
	eval, evec := Lanczos(matvec, n, n, 1e-12, rng)
	if math.Abs(eval-w[0]) > 1e-8 {
		t.Fatalf("Lanczos eval %g, dense %g", eval, w[0])
	}
	// Residual check: ||A v - eval v|| small.
	av := matvec(evec)
	var res float64
	for i := range av {
		d := av[i] - complex(eval, 0)*evec[i]
		res += real(d)*real(d) + imag(d)*imag(d)
	}
	if math.Sqrt(res) > 1e-6 {
		t.Fatalf("residual %g", math.Sqrt(res))
	}
}

func TestQRSubnormalColumns(t *testing.T) {
	// Columns with entries around 1e-160 square into the subnormal range;
	// the scaled Householder reflector must not overflow into Inf/NaN.
	rng := rand.New(rand.NewSource(20))
	a := tensor.Rand(rng, 6, 4)
	d := a.Data()
	for i := 0; i < 6; i++ {
		d[i*4+2] *= 1e-160 // third column tiny
		d[i*4+3] = 0       // fourth column zero
	}
	q, r := QR(a)
	for _, v := range append(q.Data(), r.Data()...) {
		if cmplx.IsNaN(v) || cmplx.IsInf(v) {
			t.Fatal("QR produced NaN/Inf on subnormal input")
		}
	}
	if !tensor.AllClose(tensor.MatMul(q, r), a, 1e-10, 1e-10) {
		t.Fatal("QR reconstruction failed on subnormal input")
	}
}
