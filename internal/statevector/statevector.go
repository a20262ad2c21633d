// Package statevector implements an exact dense state-vector simulator.
// It is the reference the paper compares PEPS against in its accuracy
// studies ("state vector" curves in Figures 13 and 14) and the oracle our
// PEPS tests validate against. Qubit 0 is the most significant bit of the
// amplitude index, matching the tensor ordering t_{i1...in}.
package statevector

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"gokoala/internal/linalg"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// State is a pure quantum state of n qubits stored as 2^n amplitudes.
type State struct {
	N   int
	Amp []complex128
}

// Zeros returns the computational basis state |0...0> on n qubits.
func Zeros(n int) *State {
	if n < 1 || n > 26 {
		panic(fmt.Sprintf("statevector: unsupported qubit count %d", n))
	}
	s := &State{N: n, Amp: make([]complex128, 1<<n)}
	s.Amp[0] = 1
	return s
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	return &State{N: s.N, Amp: append([]complex128(nil), s.Amp...)}
}

// Norm returns the 2-norm of the amplitude vector.
func (s *State) Norm() float64 {
	var t float64
	for _, a := range s.Amp {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(t)
}

// Normalize scales the state to unit norm.
func (s *State) Normalize() {
	n := s.Norm()
	if n == 0 {
		return
	}
	inv := complex(1/n, 0)
	for i := range s.Amp {
		s.Amp[i] *= inv
	}
}

// Inner returns <s|t>.
func (s *State) Inner(t *State) complex128 {
	if s.N != t.N {
		panic("statevector: qubit count mismatch")
	}
	var sum complex128
	for i := range s.Amp {
		sum += cmplx.Conj(s.Amp[i]) * t.Amp[i]
	}
	return sum
}

// ApplyOne applies a 2x2 gate to qubit q in place.
func (s *State) ApplyOne(g *tensor.Dense, q int) {
	if g.Rank() != 2 || g.Dim(0) != 2 || g.Dim(1) != 2 {
		panic("statevector: one-qubit gate must be 2x2")
	}
	s.checkQubit(q)
	gd := g.Data()
	stride := 1 << (s.N - 1 - q)
	n := len(s.Amp)
	for base := 0; base < n; base += stride << 1 {
		for i := base; i < base+stride; i++ {
			a0, a1 := s.Amp[i], s.Amp[i+stride]
			s.Amp[i] = gd[0]*a0 + gd[1]*a1
			s.Amp[i+stride] = gd[2]*a0 + gd[3]*a1
		}
	}
}

// ApplyTwo applies a two-qubit gate (4x4 matrix over (q1, q2) with q1 the
// more significant gate index) to arbitrary distinct qubits in place.
func (s *State) ApplyTwo(g *tensor.Dense, q1, q2 int) {
	if g.Size() != 16 {
		panic("statevector: two-qubit gate must be 4x4")
	}
	s.checkQubit(q1)
	s.checkQubit(q2)
	if q1 == q2 {
		panic("statevector: two-qubit gate on identical qubits")
	}
	gd := g.Reshape(4, 4).Data()
	b1 := 1 << (s.N - 1 - q1)
	b2 := 1 << (s.N - 1 - q2)
	n := len(s.Amp)
	for i := 0; i < n; i++ {
		// visit each 4-group once, at its 00 member
		if i&b1 != 0 || i&b2 != 0 {
			continue
		}
		i00 := i
		i01 := i | b2
		i10 := i | b1
		i11 := i | b1 | b2
		a00, a01, a10, a11 := s.Amp[i00], s.Amp[i01], s.Amp[i10], s.Amp[i11]
		s.Amp[i00] = gd[0]*a00 + gd[1]*a01 + gd[2]*a10 + gd[3]*a11
		s.Amp[i01] = gd[4]*a00 + gd[5]*a01 + gd[6]*a10 + gd[7]*a11
		s.Amp[i10] = gd[8]*a00 + gd[9]*a01 + gd[10]*a10 + gd[11]*a11
		s.Amp[i11] = gd[12]*a00 + gd[13]*a01 + gd[14]*a10 + gd[15]*a11
	}
}

// ApplyGate dispatches a one- or two-site gate by site count.
func (s *State) ApplyGate(g quantum.TrotterGate) {
	switch len(g.Sites) {
	case 1:
		s.ApplyOne(g.Gate, g.Sites[0])
	case 2:
		s.ApplyTwo(g.Gate, g.Sites[0], g.Sites[1])
	default:
		panic("statevector: unsupported gate arity")
	}
}

// ApplyObservableTerm returns term.Op applied to s (times the coefficient)
// as a new state (not normalized).
func (s *State) applyTerm(t quantum.Term) *State {
	out := s.Clone()
	switch len(t.Sites) {
	case 1:
		out.ApplyOne(t.Op, t.Sites[0])
	case 2:
		out.ApplyTwo(t.Op, t.Sites[0], t.Sites[1])
	}
	for i := range out.Amp {
		out.Amp[i] *= t.Coef
	}
	return out
}

// Expectation returns <s|H|s> for an observable given as a sum of local
// terms. The state need not be normalized; divide by Norm()^2 for the
// Rayleigh quotient.
func (s *State) Expectation(obs *quantum.Observable) complex128 {
	var sum complex128
	for _, t := range obs.Terms {
		phi := s.applyTerm(t)
		sum += s.Inner(phi)
	}
	return sum
}

// Amplitude returns the amplitude of the given computational basis state.
func (s *State) Amplitude(bits []int) complex128 {
	if len(bits) != s.N {
		panic("statevector: wrong bit count")
	}
	idx := 0
	for _, b := range bits {
		idx = idx<<1 | (b & 1)
	}
	return s.Amp[idx]
}

func (s *State) checkQubit(q int) {
	if q < 0 || q >= s.N {
		panic(fmt.Sprintf("statevector: qubit %d out of range [0,%d)", q, s.N))
	}
}

// MatVec applies the observable to an amplitude vector, the matrix-free
// Hamiltonian application used by the Lanczos ground-state solver.
func MatVec(obs *quantum.Observable, n int) linalg.MatVecFunc {
	return func(x []complex128) []complex128 {
		in := &State{N: n, Amp: x}
		out := make([]complex128, len(x))
		for _, t := range obs.Terms {
			phi := in.applyTerm(t)
			for i := range out {
				out[i] += phi.Amp[i]
			}
		}
		return out
	}
}

// GroundState computes the lowest eigenvalue and eigenstate of the
// observable on n qubits via Lanczos iteration with the matrix-free
// Hamiltonian application.
func GroundState(obs *quantum.Observable, n int, rng *rand.Rand) (float64, *State) {
	dim := 1 << n
	iters := 200
	if iters > dim {
		iters = dim
	}
	eval, evec := linalg.Lanczos(MatVec(obs, n), dim, iters, 1e-12, rng)
	return eval, &State{N: n, Amp: evec}
}

// ITE performs imaginary time evolution on the state vector: `steps`
// applications of the first-order Trotterized e^{-tau H}, renormalizing
// after each step. It returns the Rayleigh-quotient energy after every
// step, providing the "state vector" reference curves of paper Figure 13.
func ITE(obs *quantum.Observable, n int, tau float64, steps int) []float64 {
	s := plusState(n)
	gates := obs.TrotterGates(complex(-tau, 0))
	energies := make([]float64, steps)
	for step := 0; step < steps; step++ {
		for _, g := range gates {
			s.ApplyGate(g)
		}
		s.Normalize()
		energies[step] = real(s.Expectation(obs))
	}
	return energies
}

// plusState returns |+>^n, a symmetric start state that overlaps the
// ground state of the benchmark Hamiltonians.
func plusState(n int) *State {
	s := Zeros(n)
	h := quantum.H()
	for q := 0; q < n; q++ {
		s.ApplyOne(h, q)
	}
	return s
}
