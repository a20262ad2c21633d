package statevector

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"gokoala/internal/linalg"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

func TestZerosState(t *testing.T) {
	s := Zeros(3)
	if s.Amp[0] != 1 {
		t.Fatal("|000> amplitude wrong")
	}
	if math.Abs(s.Norm()-1) > 1e-15 {
		t.Fatal("not normalized")
	}
}

func TestApplyOneX(t *testing.T) {
	s := Zeros(2)
	s.ApplyOne(quantum.X(), 0)
	if s.Amplitude([]int{1, 0}) != 1 {
		t.Fatal("X on qubit 0 failed")
	}
	s = Zeros(2)
	s.ApplyOne(quantum.X(), 1)
	if s.Amplitude([]int{0, 1}) != 1 {
		t.Fatal("X on qubit 1 failed")
	}
}

func TestApplyOneHadamardTwiceIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randomState(rng, 3)
	orig := s.Clone()
	s.ApplyOne(quantum.H(), 1)
	s.ApplyOne(quantum.H(), 1)
	for i := range s.Amp {
		if cmplx.Abs(s.Amp[i]-orig.Amp[i]) > 1e-13 {
			t.Fatal("HH != I")
		}
	}
}

func TestBellState(t *testing.T) {
	s := Zeros(2)
	s.ApplyOne(quantum.H(), 0)
	s.ApplyTwo(quantum.CX(), 0, 1)
	inv := 1 / math.Sqrt2
	if cmplx.Abs(s.Amplitude([]int{0, 0})-complex(inv, 0)) > 1e-14 {
		t.Fatalf("amp(00) = %v", s.Amplitude([]int{0, 0}))
	}
	if cmplx.Abs(s.Amplitude([]int{1, 1})-complex(inv, 0)) > 1e-14 {
		t.Fatalf("amp(11) = %v", s.Amplitude([]int{1, 1}))
	}
	if s.Amplitude([]int{0, 1}) != 0 || s.Amplitude([]int{1, 0}) != 0 {
		t.Fatal("cross amplitudes nonzero")
	}
}

func TestApplyTwoNonAdjacentAndOrder(t *testing.T) {
	// CX with control qubit 2, target qubit 0 on a 3-qubit register.
	s := Zeros(3)
	s.ApplyOne(quantum.X(), 2) // |001>
	s.ApplyTwo(quantum.CX(), 2, 0)
	if s.Amplitude([]int{1, 0, 1}) != 1 {
		t.Fatal("CX(2->0) failed")
	}
}

func TestApplyTwoAgainstKron(t *testing.T) {
	// On 2 qubits, ApplyTwo(g, 0, 1) must equal the 4x4 matrix action.
	rng := rand.New(rand.NewSource(2))
	g := quantum.RandomUnitary(rng, 4)
	s := randomState(rng, 2)
	want := tensor.MatVec(g, tensor.FromData(append([]complex128(nil), s.Amp...), 4))
	s.ApplyTwo(g, 0, 1)
	for i := range s.Amp {
		if cmplx.Abs(s.Amp[i]-want.Data()[i]) > 1e-12 {
			t.Fatal("ApplyTwo disagrees with matrix action")
		}
	}
}

func TestApplyTwoSwappedQubitsMatchesSwappedGate(t *testing.T) {
	// Applying g on (q1,q2) must equal applying SWAP.g.SWAP on (q2,q1).
	rng := rand.New(rand.NewSource(3))
	g := quantum.RandomUnitary(rng, 4)
	sw := quantum.SWAP()
	gs := tensor.MatMul(tensor.MatMul(sw, g), sw)
	a := randomState(rng, 3)
	b := a.Clone()
	a.ApplyTwo(g, 0, 2)
	b.ApplyTwo(gs, 2, 0)
	for i := range a.Amp {
		if cmplx.Abs(a.Amp[i]-b.Amp[i]) > 1e-12 {
			t.Fatal("qubit order convention inconsistent")
		}
	}
}

func TestUnitaryPreservesNormProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		s := randomState(rng, 4)
		n0 := s.Norm()
		s.ApplyOne(quantum.RandomUnitary(rng, 2), rng.Intn(4))
		q1 := rng.Intn(4)
		q2 := (q1 + 1 + rng.Intn(3)) % 4
		s.ApplyTwo(quantum.RandomUnitary(rng, 4), q1, q2)
		if math.Abs(s.Norm()-n0) > 1e-12 {
			t.Fatal("unitary changed norm")
		}
	}
}

func TestExpectationSingleQubit(t *testing.T) {
	s := Zeros(1)
	if e := real(s.Expectation(quantum.ObservableZ(0))); math.Abs(e-1) > 1e-14 {
		t.Fatalf("<0|Z|0> = %g", e)
	}
	s.ApplyOne(quantum.X(), 0)
	if e := real(s.Expectation(quantum.ObservableZ(0))); math.Abs(e+1) > 1e-14 {
		t.Fatalf("<1|Z|1> = %g", e)
	}
	s = Zeros(1)
	s.ApplyOne(quantum.H(), 0)
	if e := real(s.Expectation(quantum.ObservableX(0))); math.Abs(e-1) > 1e-13 {
		t.Fatalf("<+|X|+> = %g", e)
	}
}

func TestExpectationBellZZ(t *testing.T) {
	s := Zeros(2)
	s.ApplyOne(quantum.H(), 0)
	s.ApplyTwo(quantum.CX(), 0, 1)
	if e := real(s.Expectation(quantum.ObservableZZ(0, 1))); math.Abs(e-1) > 1e-13 {
		t.Fatalf("<Bell|ZZ|Bell> = %g", e)
	}
}

func TestExpectationHermitianProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomState(rng, 3)
	obs := quantum.TransverseFieldIsing(1, 3, -1, -3.5)
	e := s.Expectation(obs)
	if math.Abs(imag(e)) > 1e-12 {
		t.Fatalf("Hermitian expectation has imaginary part %g", imag(e))
	}
}

func TestGroundStateTFI1x2(t *testing.T) {
	// H = -ZZ - 3.5(X1+X2); check against dense diagonalization by
	// building the 4x4 matrix explicitly.
	obs := quantum.TransverseFieldIsing(1, 2, -1, -3.5)
	hmat := observableMatrix(obs, 2)
	wantE := minEigDense(t, hmat)
	rng := rand.New(rand.NewSource(6))
	gotE, gs := GroundState(obs, 2, rng)
	if math.Abs(gotE-wantE) > 1e-9 {
		t.Fatalf("ground energy %g, want %g", gotE, wantE)
	}
	if e := real(gs.Expectation(obs)); math.Abs(e-wantE) > 1e-9 {
		t.Fatalf("eigenstate expectation %g, want %g", e, wantE)
	}
}

func TestGroundStatePaperTFI3x3(t *testing.T) {
	// Paper section VI-D2: exact ground state energy per site of the 3x3
	// ferromagnetic TFI model (Jz=-1, hx=-3.5) is -3.60024.
	obs := quantum.TransverseFieldIsing(3, 3, -1, -3.5)
	rng := rand.New(rand.NewSource(7))
	e, _ := GroundState(obs, 9, rng)
	perSite := e / 9
	if math.Abs(perSite-(-3.60024)) > 5e-5 {
		t.Fatalf("TFI 3x3 ground energy per site = %.5f, paper says -3.60024", perSite)
	}
}

func TestITEConvergesToGroundState(t *testing.T) {
	obs := quantum.TransverseFieldIsing(2, 2, -1, -3.5)
	rng := rand.New(rand.NewSource(8))
	want, _ := GroundState(obs, 4, rng)
	energies := ITE(obs, 4, 0.02, 200)
	got := energies[len(energies)-1]
	if math.Abs(got-want) > 1e-2*math.Abs(want) {
		t.Fatalf("ITE final energy %g, ground %g", got, want)
	}
	// Energy should be non-increasing up to Trotter error.
	for i := 1; i < len(energies); i++ {
		if energies[i] > energies[i-1]+1e-6 {
			t.Fatalf("ITE energy increased at step %d: %g -> %g", i, energies[i-1], energies[i])
		}
	}
}

func TestMatVecMatchesExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	obs := quantum.J1J2Heisenberg(2, 2, quantum.PaperJ1J2Params())
	s := randomState(rng, 4)
	s.Normalize()
	mv := MatVec(obs, 4)
	hs := mv(append([]complex128(nil), s.Amp...))
	var dot complex128
	for i := range hs {
		dot += cmplx.Conj(s.Amp[i]) * hs[i]
	}
	if cmplx.Abs(dot-s.Expectation(obs)) > 1e-11 {
		t.Fatal("MatVec inconsistent with Expectation")
	}
}

// --- helpers ---

func randomState(rng *rand.Rand, n int) *State {
	s := Zeros(n)
	for i := range s.Amp {
		s.Amp[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	s.Normalize()
	return s
}

// observableMatrix builds the dense matrix of an observable on n qubits.
func observableMatrix(obs *quantum.Observable, n int) *tensor.Dense {
	dim := 1 << n
	m := tensor.New(dim, dim)
	for col := 0; col < dim; col++ {
		basis := &State{N: n, Amp: make([]complex128, dim)}
		basis.Amp[col] = 1
		hv := MatVec(obs, n)(basis.Amp)
		for row := 0; row < dim; row++ {
			m.Set(hv[row], row, col)
		}
	}
	return m
}

func minEigDense(t *testing.T, m *tensor.Dense) float64 {
	t.Helper()
	w, _ := linalg.EigH(m)
	return w[0]
}
