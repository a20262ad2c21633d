package main

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/quantum"
	"gokoala/internal/statevector"
	"gokoala/internal/tensor"
)

// plainEngine has only the Engine methods of the engine it embeds, so
// it stands for an engine without optional capabilities.
type plainEngine struct{ backend.Engine }

func TestWrapperForwardsCapabilities(t *testing.T) {
	eng := backend.Instrument(backend.NewDense())
	w := wrapEngine(eng, newRecorder())
	if _, ok := backend.SymOf(w); !ok {
		t.Fatal("wrapped sym-capable engine lost SymEngine")
	}
	if _, ok := w.(backend.MixedContractor); !ok {
		t.Fatal("wrapped engine lost MixedContractor")
	}
	if _, ok := backend.SymOf(wrapEngine(plainEngine{eng}, newRecorder())); ok {
		t.Fatal("wrapper claims SymEngine for an engine without it")
	}
	if w.Name() != eng.Name() {
		t.Fatalf("wrapper renamed the engine: %q, want %q", w.Name(), eng.Name())
	}
}

func TestWrapperEinsumMixedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := tensor.Rand(rng, 6, 7)
	b := tensor.Rand(rng, 7, 5)
	eng := backend.Instrument(backend.NewDense())
	rec := newRecorder()
	w := wrapEngine(eng, rec)
	want := eng.(backend.MixedContractor).EinsumMixed("ij,jk->ik", a, b)
	got := w.(backend.MixedContractor).EinsumMixed("ij,jk->ik", a, b)
	sameData(t, "mixed einsum", got.Data(), want.Data())
	// Without the capability the wrapper runs full precision, as
	// einsumsvd would on the bare engine.
	full := eng.Einsum("ij,jk->ik", a, b)
	got = wrapEngine(plainEngine{eng}, rec).(backend.MixedContractor).EinsumMixed("ij,jk->ik", a, b)
	sameData(t, "mixed einsum without capability", got.Data(), full.Data())
	if c := snapshot(rec); c[cCalls+kindEinsum] != 2 || c[cFlops] != 2*6*7*5 {
		t.Fatalf("recorded %d einsum calls and %d flops, want 2 and %d", c[cCalls+kindEinsum], c[cFlops], 2*6*7*5)
	}
}

func sameData(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d is %v, want %v bit for bit", what, i, got[i], want[i])
		}
	}
}

// The wrapper only observes: ITE energies at the same seed are
// bit-identical with and without it, on the dense and the U(1) path.
func TestWrapperITEBitIdentical(t *testing.T) {
	for _, sym := range []bool{false, true} {
		model := iteModel(sym)
		eng := backend.Instrument(backend.NewDense())
		rec := newRecorder()
		want := iteSolve(eng, model, sym, 4, 11, nil)
		got := iteSolve(wrapEngine(eng, rec), model, sym, 4, 11, nil)
		if got.FellBack || want.FellBack {
			t.Fatalf("sym=%v: solve fell back to dense", sym)
		}
		eg, ew := got.Energies[len(got.Energies)-1], want.Energies[len(want.Energies)-1]
		if math.Float64bits(eg) != math.Float64bits(ew) {
			t.Fatalf("sym=%v: energy %.17g with the wrapper, %.17g without", sym, eg, ew)
		}
		c := snapshot(rec)
		if sym && c[cCalls+kindSymEinsum] == 0 {
			t.Fatal("U(1) solve made no timed SymEinsum call")
		}
		if !sym && (c[cCalls+kindTruncSVD] == 0 || c[cCalls+kindQRSplit] == 0) {
			t.Fatal("dense solve made no timed QR or SVD call")
		}
	}
}

// Amplitudes are bit-identical with and without the wrapper and match
// the state vector.
func TestWrapperAmplitudeBitIdentical(t *testing.T) {
	eng := backend.Instrument(backend.NewDense())
	s := newAmplitudeSetup(eng, 3)
	exact := exactAmplitudes(s)
	rec := newRecorder()
	traced := withEngine(s.state, wrapEngine(eng, rec))
	for _, b := range []int{0, 1} {
		want := amplitude(s.state, s.bits[b], 3, b)
		got := amplitude(traced, s.bits[b], 3, b)
		if got != want {
			t.Fatalf("bit string %d: amplitude %v with the wrapper, %v without", b, got, want)
		}
		if e := cmplx.Abs(got-exact[b]) / cmplx.Abs(exact[b]); e > ampTol {
			t.Fatalf("bit string %d: relative error %g above %g", b, e, ampTol)
		}
	}
	if snapshot(rec)[cCalls+kindOrth] == 0 {
		t.Fatal("IBMPS amplitude made no timed Orth call")
	}
}

// TestExactGroundEnergy re-derives the committed exact ground energy
// for both forms of the model.
func TestExactGroundEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("exact diagonalization takes seconds")
	}
	for _, sym := range []bool{false, true} {
		e := exactGroundEnergy(iteModel(sym))
		if math.Abs(e-exactGroundPerSite) > 1e-9 {
			t.Fatalf("sym=%v: exact ground energy per site %.13f, committed %.13f", sym, e, exactGroundPerSite)
		}
	}
}

func exactGroundEnergy(model *quantum.Observable) float64 {
	n := iteRows * iteCols
	e, _ := statevector.GroundState(model, n, rand.New(rand.NewSource(1)))
	return e / float64(n)
}
