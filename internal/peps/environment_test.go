package peps

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"gokoala/internal/quantum"
	"gokoala/internal/statevector"
)

func TestEnvironmentCutsAgree(t *testing.T) {
	// <psi|psi> computed by closing top and bottom environments must be
	// the same at every row cut (the invariant behind the caching scheme).
	rng := rand.New(rand.NewSource(30))
	p := Random(eng, rng, 4, 3, 2, 2)
	tops := p.TopEnvironments(32, explicit())
	bottoms := p.BottomEnvironments(32, explicit())
	ref := closeBoundaries(p.eng, tops[0], bottoms[0])
	for k := 1; k <= p.Rows; k++ {
		v := closeBoundaries(p.eng, tops[k], bottoms[k])
		if cmplx.Abs(v-ref) > 1e-8*cmplx.Abs(ref) {
			t.Fatalf("cut %d: %v != %v", k, v, ref)
		}
	}
	// And it must match the independent two-layer inner product.
	inner := p.Inner(p, TwoLayerBMPS{M: 32, Strategy: explicit()})
	if cmplx.Abs(inner-ref) > 1e-8*cmplx.Abs(ref) {
		t.Fatalf("environments %v vs Inner %v", ref, inner)
	}
}

func TestEnvironmentBondCapRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := Random(eng, rng, 4, 4, 2, 3)
	tops := p.TopEnvironments(5, explicit())
	for k, b := range tops {
		if mb := b.maxBond(); mb > 5 {
			t.Fatalf("tops[%d] bond %d exceeds cap", k, mb)
		}
	}
}

func TestTruncatedCircuitFidelity(t *testing.T) {
	// A truncated PEPS evolution is an approximation: its fidelity with
	// the exact state must be <= 1 and grow with the bond cap.
	rng := rand.New(rand.NewSource(32))
	var gates []quantum.TrotterGate
	for layer := 0; layer < 3; layer++ {
		for q := 0; q < 6; q++ {
			gates = append(gates, quantum.TrotterGate{Sites: []int{q}, Gate: quantum.RandomUnitary(rng, 2)})
		}
		for _, pr := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {2, 5}} {
			gates = append(gates, quantum.TrotterGate{Sites: []int{pr[0], pr[1]}, Gate: quantum.RandomUnitary(rng, 4)})
		}
	}
	sv := statevector.Zeros(6)
	for _, g := range gates {
		sv.ApplyGate(g)
	}
	fidelity := func(rank int) float64 {
		p := ComputationalZeros(eng, 2, 3)
		opts := UpdateOptions{Rank: rank, Method: UpdateQR}
		for _, g := range gates {
			p.ApplyGate(g, opts)
		}
		// Enumerate amplitudes exactly so both the overlap and the norm
		// are free of contraction error.
		var overlap complex128
		var norm2 float64
		opt := BMPS{M: 1 << 16, Strategy: explicit()}
		for _, bits := range allBits(6) {
			amp := p.Amplitude(bits, opt)
			overlap += cmplx.Conj(sv.Amplitude(bits)) * amp
			norm2 += real(amp)*real(amp) + imag(amp)*imag(amp)
		}
		return cmplx.Abs(overlap) / math.Sqrt(norm2)
	}
	// Note: because the lattice has loops, no single-bond Schmidt bound
	// guarantees exactness at finite rank; only the untruncated evolution
	// (rank 0) is exact.
	f2, f4, fExact := fidelity(2), fidelity(4), fidelity(0)
	if f2 > 1+1e-9 || f4 > 1+1e-9 || fExact > 1+1e-9 {
		t.Fatalf("fidelity above 1: %g %g %g", f2, f4, fExact)
	}
	if f4 < f2-1e-9 {
		t.Fatalf("fidelity should improve with rank: f2=%g f4=%g", f2, f4)
	}
	if fExact < 1-1e-9 {
		t.Fatalf("untruncated evolution should be exact, fidelity %g", fExact)
	}
}

func TestNormalizedInnerSelfIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	p := Random(eng, rng, 3, 3, 2, 2)
	v := p.NormalizedInner(p, BMPS{M: 64, Strategy: explicit()})
	if cmplx.Abs(v-1) > 1e-9 {
		t.Fatalf("normalized self inner = %v", v)
	}
}

func TestLogScaleAffectsInnerConsistently(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	p := Random(eng, rng, 2, 2, 2, 2)
	q := p.Clone()
	// Scale one site down and push the factor into LogScale: the state is
	// unchanged, so inner products must be unchanged.
	s := q.Site(0, 0)
	s.ScaleInPlace(complex(math.Exp(-2), 0))
	q.LogScale += 2
	opt := TwoLayerBMPS{M: 32, Strategy: explicit()}
	a := p.Inner(p, opt)
	b := q.Inner(q, opt)
	if cmplx.Abs(a-b) > 1e-9*cmplx.Abs(a) {
		t.Fatalf("LogScale bookkeeping broke Inner: %v vs %v", a, b)
	}
	c := p.Inner(q, opt)
	if cmplx.Abs(a-c) > 1e-9*cmplx.Abs(a) {
		t.Fatalf("mixed Inner wrong: %v vs %v", a, c)
	}
	// ContractScalar path too (one-layer).
	pl := RandomNoPhys(eng, rng, 3, 3, 2)
	ql := pl.ShallowClone()
	ql.SetSite(1, 1, pl.Site(1, 1).Scale(complex(math.Exp(-1), 0)))
	ql.LogScale++
	va := pl.ContractScalar(BMPS{M: 16, Strategy: explicit()})
	vb := ql.ContractScalar(BMPS{M: 16, Strategy: explicit()})
	if cmplx.Abs(va-vb) > 1e-9*cmplx.Abs(va) {
		t.Fatalf("LogScale broke ContractScalar: %v vs %v", va, vb)
	}
}

func TestExpectationOptionValidation(t *testing.T) {
	p := ComputationalZeros(eng, 2, 2)
	obs := quantum.ObservableZ(0)
	for _, f := range []func(){
		func() { p.Expectation(obs, ExpectationOptions{M: 0, Strategy: explicit()}) },
		func() { p.Expectation(obs, ExpectationOptions{M: 4}) },
		func() { p.Expectation(quantum.ObservableZ(7), ExpectationOptions{M: 4, Strategy: explicit()}) },
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

func TestMergeLayersDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	a := Random(eng, rng, 2, 3, 2, 2)
	b := Random(eng, rng, 2, 3, 2, 3)
	m := MergeLayers(a, b)
	// Interior bonds multiply: 2*3 = 6.
	if m.Site(0, 1).Dim(3) != 6 {
		t.Fatalf("merged bond = %d, want 6", m.Site(0, 1).Dim(3))
	}
	if m.Site(0, 0).Dim(4) != 1 {
		t.Fatal("merged network should have trivial physical dims")
	}
	// Value agrees with exact two-layer inner product.
	want := a.Inner(b, Exact{})
	got := m.ContractScalar(Exact{})
	if cmplx.Abs(got-want) > 1e-10*(1+cmplx.Abs(want)) {
		t.Fatalf("MergeLayers value %v, want %v", got, want)
	}
}

func TestMergeLayersSizeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := Random(eng, rng, 2, 2, 2, 2)
	b := Random(eng, rng, 2, 3, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MergeLayers(a, b)
}
