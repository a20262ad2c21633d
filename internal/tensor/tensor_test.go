package tensor

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroInitialized(t *testing.T) {
	a := New(2, 3, 4)
	if a.Size() != 24 {
		t.Fatalf("size = %d, want 24", a.Size())
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatalf("element not zero: %v", v)
		}
	}
}

func TestScalar(t *testing.T) {
	s := Scalar(3 + 4i)
	if s.Rank() != 0 || s.Item() != 3+4i {
		t.Fatalf("scalar = %v", s)
	}
}

func TestFromDataMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromData(make([]complex128, 5), 2, 3)
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4, 5)
	a.Set(1+2i, 2, 1, 3)
	if got := a.At(2, 1, 3); got != 1+2i {
		t.Fatalf("At = %v", got)
	}
	// row-major offset check
	if a.Data()[2*20+1*5+3] != 1+2i {
		t.Fatal("row-major layout violated")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(0, 2)
}

func TestReshapeSharesData(t *testing.T) {
	a := New(2, 6)
	b := a.Reshape(3, 4)
	b.Set(7, 0, 1)
	if a.At(0, 1) != 7 {
		t.Fatal("reshape did not share data")
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(5)
}

func TestTransposeMatrix(t *testing.T) {
	a := FromData([]complex128{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Transpose(1, 0)
	if !SameShape(b.Shape(), []int{3, 2}) {
		t.Fatalf("shape = %v", b.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if b.At(j, i) != a.At(i, j) {
				t.Fatalf("b[%d,%d]=%v want %v", j, i, b.At(j, i), a.At(i, j))
			}
		}
	}
}

func TestTransposeHighRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Rand(rng, 2, 3, 4, 5)
	perm := []int{2, 0, 3, 1}
	b := a.Transpose(perm...)
	if !SameShape(b.Shape(), []int{4, 2, 5, 3}) {
		t.Fatalf("shape = %v", b.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				for l := 0; l < 5; l++ {
					if b.At(k, i, l, j) != a.At(i, j, k, l) {
						t.Fatalf("mismatch at %d,%d,%d,%d", i, j, k, l)
					}
				}
			}
		}
	}
}

func TestTransposeIdentityClones(t *testing.T) {
	a := New(2, 2)
	b := a.Transpose(0, 1)
	b.Set(1, 0, 0)
	if a.At(0, 0) != 0 {
		t.Fatal("identity transpose aliases input")
	}
}

func TestTransposeInvolution(t *testing.T) {
	// Property: applying a permutation then its inverse restores the tensor.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		r := 1 + rng.Intn(4)
		shape := make([]int, r)
		for i := range shape {
			shape[i] = 1 + rng.Intn(4)
		}
		a := Rand(rng, shape...)
		perm := rng.Perm(r)
		inv := make([]int, r)
		for i, p := range perm {
			inv[p] = i
		}
		b := a.Transpose(perm...).Transpose(inv...)
		if !AllClose(b, a, 0, 0) {
			t.Fatalf("transpose involution failed for shape %v perm %v", shape, perm)
		}
	}
}

func TestConjInvolutionProperty(t *testing.T) {
	f := func(re, im float64) bool {
		a := Scalar(complex(re, im))
		return a.Conj().Conj().Item() == a.Item()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromData([]complex128{1, 2i}, 2)
	b := FromData([]complex128{3, 4}, 2)
	if got := a.Add(b).At(1); got != 4+2i {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b).At(0); got != -2 {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2i).At(1); got != -4 {
		t.Fatalf("Scale = %v", got)
	}
}

func TestNormAndDot(t *testing.T) {
	a := FromData([]complex128{3, 4i}, 2)
	if got := a.Norm(); math.Abs(got-5) > 1e-14 {
		t.Fatalf("Norm = %v", got)
	}
	b := FromData([]complex128{1, 1}, 2)
	// <a,b> = conj(3)*1 + conj(4i)*1 = 3 - 4i
	if got := a.Dot(b); got != 3-4i {
		t.Fatalf("Dot = %v", got)
	}
	// Norm^2 == <a,a>
	if d := a.Dot(a); cmplx.Abs(d-complex(a.Norm()*a.Norm(), 0)) > 1e-12 {
		t.Fatalf("norm/dot inconsistent: %v vs %v", d, a.Norm()*a.Norm())
	}
}

func TestDotConjugateSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		a := Rand(rng, 7)
		b := Rand(rng, 7)
		lhs := a.Dot(b)
		rhs := cmplx.Conj(b.Dot(a))
		if cmplx.Abs(lhs-rhs) > 1e-12 {
			t.Fatalf("<a,b> != conj(<b,a>): %v vs %v", lhs, rhs)
		}
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromData([]complex128{1, 2, 3, 4}, 2, 2)
	b := FromData([]complex128{5, 6, 7, 8}, 2, 2)
	c := MatMul(a, b)
	want := []complex128{19, 22, 43, 50}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("c[%d] = %v want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulComplex(t *testing.T) {
	a := FromData([]complex128{1i, 0, 0, 1i}, 2, 2)
	c := MatMul(a, a)
	if c.At(0, 0) != -1 || c.At(1, 1) != -1 || c.At(0, 1) != 0 {
		t.Fatalf("i*I squared wrong: %v", c)
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {70, 65, 90}, {128, 1, 64}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Rand(rng, m, k)
		b := Rand(rng, k, n)
		got := MatMul(a, b)
		want := New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s complex128
				for l := 0; l < k; l++ {
					s += a.At(i, l) * b.At(l, j)
				}
				want.Set(s, i, j)
			}
		}
		if !AllClose(got, want, 1e-12, 1e-12) {
			t.Fatalf("MatMul mismatch at dims %v", dims)
		}
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		a := Rand(rng, 4, 6)
		b := Rand(rng, 6, 3)
		c := Rand(rng, 3, 5)
		lhs := MatMul(MatMul(a, b), c)
		rhs := MatMul(a, MatMul(b, c))
		if !AllClose(lhs, rhs, 1e-10, 1e-10) {
			t.Fatal("(AB)C != A(BC)")
		}
	}
}

func TestBatchMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Rand(rng, 3, 4, 5)
	b := Rand(rng, 3, 5, 2)
	c := BatchMatMul(a, b)
	for bt := 0; bt < 3; bt++ {
		am := FromData(a.Data()[bt*20:(bt+1)*20], 4, 5)
		bm := FromData(b.Data()[bt*10:(bt+1)*10], 5, 2)
		want := MatMul(am, bm)
		got := FromData(c.Data()[bt*8:(bt+1)*8], 4, 2)
		if !AllClose(got, want, 1e-12, 1e-12) {
			t.Fatalf("batch %d mismatch", bt)
		}
	}
}

func TestMatVec(t *testing.T) {
	a := FromData([]complex128{1, 2, 3, 4}, 2, 2)
	x := FromData([]complex128{1, 1i}, 2)
	y := MatVec(a, x)
	if y.At(0) != 1+2i || y.At(1) != 3+4i {
		t.Fatalf("MatVec = %v", y)
	}
}

func TestKron(t *testing.T) {
	x := FromData([]complex128{0, 1, 1, 0}, 2, 2)
	i2 := Eye(2)
	k := Kron(x, i2)
	if !SameShape(k.Shape(), []int{4, 4}) {
		t.Fatalf("shape = %v", k.Shape())
	}
	// X (x) I swaps the two 2x2 blocks
	if k.At(0, 2) != 1 || k.At(1, 3) != 1 || k.At(2, 0) != 1 || k.At(3, 1) != 1 {
		t.Fatalf("Kron wrong: %v", k)
	}
	if k.At(0, 0) != 0 {
		t.Fatalf("Kron wrong at 0,0")
	}
}

func TestKronMixedProductProperty(t *testing.T) {
	// (A (x) B)(C (x) D) == (AC) (x) (BD)
	rng := rand.New(rand.NewSource(7))
	a, b := Rand(rng, 2, 3), Rand(rng, 3, 2)
	c, d := Rand(rng, 3, 2), Rand(rng, 2, 4)
	lhs := MatMul(Kron(a, b), Kron(c, d))
	rhs := Kron(MatMul(a, c), MatMul(b, d))
	if !AllClose(lhs, rhs, 1e-10, 1e-10) {
		t.Fatal("Kron mixed-product property failed")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2)
	b := a.Clone()
	b.Set(5, 0)
	if a.At(0) != 0 {
		t.Fatal("clone aliases original")
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatalf("Eye[%d,%d] = %v", i, j, e.At(i, j))
			}
		}
	}
}

func TestFlopCounter(t *testing.T) {
	ResetFlopCount()
	a := New(10, 20)
	b := New(20, 30)
	MatMul(a, b)
	if got := FlopCount(); got != 10*20*30 {
		t.Fatalf("FlopCount = %d want %d", got, 10*20*30)
	}
	ResetFlopCount()
	if FlopCount() != 0 {
		t.Fatal("reset failed")
	}
}

func TestStrides(t *testing.T) {
	s := Strides([]int{2, 3, 4})
	if s[0] != 12 || s[1] != 4 || s[2] != 1 {
		t.Fatalf("Strides = %v", s)
	}
}

func TestAllClose(t *testing.T) {
	a := FromData([]complex128{1, 2}, 2)
	b := FromData([]complex128{1, 2 + 1e-12}, 2)
	if !AllClose(a, b, 1e-10, 0) {
		t.Fatal("should be close")
	}
	c := FromData([]complex128{1, 3}, 2)
	if AllClose(a, c, 1e-10, 1e-10) {
		t.Fatal("should not be close")
	}
	if AllClose(a, New(3), 1, 1) {
		t.Fatal("different shapes must not compare close")
	}
}

func TestRandDeterministic(t *testing.T) {
	a := Rand(rand.New(rand.NewSource(42)), 3, 3)
	b := Rand(rand.New(rand.NewSource(42)), 3, 3)
	if !AllClose(a, b, 0, 0) {
		t.Fatal("same seed should give same tensor")
	}
	for _, v := range a.Data() {
		if real(v) < -1 || real(v) >= 1 || imag(v) < -1 || imag(v) >= 1 {
			t.Fatalf("entry %v outside [-1,1)", v)
		}
	}
}
