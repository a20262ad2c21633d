package mps

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/tensor"
)

var eng = backend.NewDense()

// amplitudes contracts an MPS to its full 2^... amplitude tensor (small
// sizes only), the brute-force oracle.
func amplitudes(t *testing.T, s *MPS) *tensor.Dense {
	t.Helper()
	cur := s.Sites[0] // [1, p, b] -> treat as [P..., b]
	shape := []int{s.Sites[0].Dim(1)}
	cur = cur.Reshape(shape[0], s.Sites[0].Dim(2))
	for i := 1; i < s.Len(); i++ {
		st := s.Sites[i]
		cur = eng.Einsum("ab,bpc->apc", cur, st)
		sh := cur.Shape()
		cur = cur.Reshape(sh[0]*sh[1], sh[2])
		shape = append(shape, st.Dim(1))
	}
	return cur.Reshape(append([]int{}, shape...)...)
}

// applyMPODense applies an MPO to the dense amplitude tensor directly.
func applyMPODense(t *testing.T, o *MPO, amps *tensor.Dense) *tensor.Dense {
	t.Helper()
	// contract the MPO to a dense operator [outs..., ins...]
	cur := o.Sites[0].Reshape(o.Sites[0].Dim(1), o.Sites[0].Dim(2), o.Sites[0].Dim(3)) // [q p b]
	var outs, ins []int
	outs = append(outs, o.Sites[0].Dim(1))
	ins = append(ins, o.Sites[0].Dim(2))
	for i := 1; i < len(o.Sites); i++ {
		st := o.Sites[i]
		cur = eng.Einsum("ab,bqpc->aqpc", cur.Reshape(cur.Size()/o.Sites[i-1].Dim(3), o.Sites[i-1].Dim(3)), st)
		sh := cur.Shape()
		cur = cur.Reshape(sh[0]*sh[1]*sh[2], sh[3])
		outs = append(outs, st.Dim(1))
		ins = append(ins, st.Dim(2))
	}
	// cur rows are interleaved (q1 p1 q2 p2 ...); unravel to [q1 p1 q2 p2...]
	shape := []int{}
	for i := range outs {
		shape = append(shape, outs[i], ins[i])
	}
	op := cur.Reshape(append([]int{}, shape...)...)
	// permute to [q1 q2 ... p1 p2 ...]
	n := len(outs)
	perm := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		perm = append(perm, 2*i)
	}
	for i := 0; i < n; i++ {
		perm = append(perm, 2*i+1)
	}
	op = op.Transpose(perm...)
	dimOut, dimIn := 1, 1
	for i := 0; i < n; i++ {
		dimOut *= outs[i]
		dimIn *= ins[i]
	}
	res := tensor.MatVec(op.Reshape(dimOut, dimIn), amps.Reshape(dimIn))
	outShape := append([]int{}, outs...)
	return res.Reshape(outShape...)
}

func randomMPO(rng *rand.Rand, n, d, bond int) *MPO {
	sites := make([]*tensor.Dense, n)
	left := 1
	for i := 0; i < n; i++ {
		right := bond
		if i == n-1 {
			right = 1
		}
		sites[i] = tensor.Rand(rng, left, d, d, right)
		left = right
	}
	return NewMPO(sites)
}

func TestInnerAndNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := Random(rng, 4, 2, 3)
	amps := amplitudes(t, s)
	wantNorm := amps.Norm()
	if got := s.Norm(eng); math.Abs(got-wantNorm) > 1e-10*wantNorm {
		t.Fatalf("Norm = %g, want %g", got, wantNorm)
	}
	u := Random(rng, 4, 2, 2)
	wantInner := amplitudes(t, u).Dot(amps)
	if got := Inner(eng, u, s); cmplx.Abs(got-wantInner) > 1e-10*cmplx.Abs(wantInner) {
		t.Fatalf("Inner = %v, want %v", got, wantInner)
	}
}

func TestApplyMPOExactMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := Random(rng, 4, 2, 2)
	o := randomMPO(rng, 4, 2, 3)
	got := amplitudes(t, ApplyMPOExact(eng, s, o))
	want := applyMPODense(t, o, amplitudes(t, s))
	if !tensor.AllClose(got, want, 1e-9, 1e-9) {
		t.Fatal("exact MPO application disagrees with dense oracle")
	}
}

func TestZipUpLargeBondIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := Random(rng, 5, 2, 2)
	o := randomMPO(rng, 5, 2, 2)
	want := applyMPODense(t, o, amplitudes(t, s))
	for name, st := range map[string]einsumsvd.Strategy{
		"explicit": einsumsvd.Explicit{},
		"implicit": einsumsvd.ImplicitRand{NIter: 3, Oversample: 4, Rng: rng},
	} {
		got := amplitudes(t, ApplyMPOZipUp(eng, s, o, 64, st))
		if !tensor.AllClose(got, want, 1e-7, 1e-7) {
			t.Errorf("%s: untruncated zip-up should be exact, dev %g", name, got.Sub(want).MaxAbs())
		}
	}
}

func TestZipUpTruncationErrorDecreasesWithBond(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := Random(rng, 6, 2, 3)
	o := randomMPO(rng, 6, 2, 3)
	want := applyMPODense(t, o, amplitudes(t, s))
	wn := want.Norm()
	var prev float64 = math.Inf(1)
	for _, m := range []int{2, 4, 8, 32} {
		got := amplitudes(t, ApplyMPOZipUp(eng, s, o, m, einsumsvd.Explicit{}))
		err := got.Sub(want).Norm() / wn
		if err > prev*1.5 { // allow small non-monotonic wiggle
			t.Fatalf("truncation error grew with bond: m=%d err=%g prev=%g", m, err, prev)
		}
		prev = err
	}
	if prev > 1e-8 {
		t.Fatalf("final error %g should be near zero", prev)
	}
}

func TestZipUpRespectsBondCap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := Random(rng, 6, 2, 4)
	o := randomMPO(rng, 6, 2, 4)
	got := ApplyMPOZipUp(eng, s, o, 5, einsumsvd.Explicit{})
	if got.MaxBond() > 5 {
		t.Fatalf("bond %d exceeds cap 5", got.MaxBond())
	}
}

func TestZipUpSingleSite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := Random(rng, 1, 2, 1)
	o := randomMPO(rng, 1, 2, 1)
	got := amplitudes(t, ApplyMPOZipUp(eng, s, o, 4, einsumsvd.Explicit{}))
	want := applyMPODense(t, o, amplitudes(t, s))
	if !tensor.AllClose(got, want, 1e-10, 1e-10) {
		t.Fatal("single-site MPO application wrong")
	}
}

func TestContractChain(t *testing.T) {
	// MPS with phys dims 1 is a chain of matrices; the contraction is the
	// product of those matrices summed over boundary (dims 1).
	a := tensor.FromData([]complex128{1, 2, 3, 4}, 1, 1, 4)
	b := tensor.FromData([]complex128{5, 6, 7, 8}, 4, 1, 1)
	s := NewMPS([]*tensor.Dense{a, b})
	got := s.ContractChain(eng)
	if got != 1*5+2*6+3*7+4*8 {
		t.Fatalf("ContractChain = %v", got)
	}
}

func TestValidationPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewMPS(nil) },
		func() { NewMPS([]*tensor.Dense{tensor.New(2, 2)}) },                         // rank
		func() { NewMPS([]*tensor.Dense{tensor.New(2, 2, 1)}) },                      // left boundary
		func() { NewMPS([]*tensor.Dense{tensor.New(1, 2, 3), tensor.New(2, 2, 1)}) }, // bond mismatch
		func() { NewMPO([]*tensor.Dense{tensor.New(1, 2, 2)}) },                      // rank
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
