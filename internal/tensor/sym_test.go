package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fillSym stores a random block at every allowed sector tuple.
func fillSym(rng *rand.Rand, s *Sym) *Sym {
	legs := s.Legs()
	eachSectorTuple(legs, func(sectors []int) {
		if !s.Allowed(sectors) {
			return
		}
		s.SetBlock(Rand(rng, s.blockShape(sectors)...), sectors...)
	})
	return s
}

func randSym(rng *rand.Rand, mod, total int, legs []Leg) *Sym {
	return fillSym(rng, NewSym(mod, total, legs))
}

func symsClose(t *testing.T, a, b *Dense, tol float64) {
	t.Helper()
	if len(a.Data()) != len(b.Data()) {
		t.Fatalf("size mismatch %d vs %d", len(a.Data()), len(b.Data()))
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		d := ad[i] - bd[i]
		if math.Hypot(real(d), imag(d)) > tol {
			t.Fatalf("element %d differs: %v vs %v", i, ad[i], bd[i])
		}
	}
}

func TestLegBasics(t *testing.T) {
	l := Leg{Dir: 1, Charges: []int{-1, 0, 2}, Dims: []int{2, 3, 1}}
	if l.NumSectors() != 3 || l.TotalDim() != 6 {
		t.Fatalf("sectors %d dim %d, want 3 and 6", l.NumSectors(), l.TotalDim())
	}
	off := l.Offsets()
	if off[0] != 0 || off[1] != 2 || off[2] != 5 {
		t.Fatalf("offsets %v", off)
	}
	d := l.Dual()
	if d.Dir != -1 || !DualLegs(l, d) {
		t.Fatalf("dual leg wrong: %+v", d)
	}
	if !reflect.DeepEqual(l, l.Dual().Dual()) {
		t.Fatal("double dual changed the leg")
	}
}

func TestCanonCharge(t *testing.T) {
	if CanonCharge(-3, 0) != -3 || CanonCharge(7, 0) != 7 {
		t.Fatal("U(1) canon must be identity")
	}
	if CanonCharge(-1, 2) != 1 || CanonCharge(4, 2) != 0 || CanonCharge(5, 3) != 2 {
		t.Fatal("Z_n canon wrong")
	}
}

func TestNewSymValidation(t *testing.T) {
	good := Leg{Dir: 1, Charges: []int{0, 1}, Dims: []int{1, 1}}
	for name, fn := range map[string]func(){
		"modulus 1":  func() { NewSym(1, 0, []Leg{good}) },
		"bad dir":    func() { NewSym(0, 0, []Leg{{Dir: 2, Charges: []int{0}, Dims: []int{1}}}) },
		"descending": func() { NewSym(0, 0, []Leg{{Dir: 1, Charges: []int{1, 0}, Dims: []int{1, 1}}}) },
		"zn out of range": func() {
			NewSym(2, 0, []Leg{{Dir: 1, Charges: []int{0, 2}, Dims: []int{1, 1}}})
		},
		"zero dim": func() { NewSym(0, 0, []Leg{{Dir: 1, Charges: []int{0}, Dims: []int{0}}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSetBlockEnforcesConservation(t *testing.T) {
	legs := []Leg{
		{Dir: 1, Charges: []int{0, 1}, Dims: []int{2, 2}},
		{Dir: -1, Charges: []int{0, 1}, Dims: []int{2, 2}},
	}
	s := NewSym(0, 0, legs)
	s.SetBlock(New(2, 2), 1, 1) // charge +1 -1 = 0: allowed
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on conservation violation")
		}
	}()
	s.SetBlock(New(2, 2), 1, 0) // charge +1: violates total 0
}

func TestSymToDenseFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mod := range []int{0, 2} {
		legs := []Leg{
			{Dir: 1, Charges: []int{0, 1}, Dims: []int{2, 3}},
			{Dir: 1, Charges: []int{0, 1}, Dims: []int{1, 2}},
			{Dir: -1, Charges: []int{0, 1}, Dims: []int{2, 2}},
		}
		s := randSym(rng, mod, 1, legs)
		if s.NumBlocks() == 0 {
			t.Fatal("no allowed blocks")
		}
		d := s.ToDense()
		back, resid := SymFromDense(d, mod, 1, legs)
		// The residual is sqrt(total^2 - kept^2); for an exactly conserving
		// input the difference cancels to rounding, so sqrt leaves ~1e-8.
		if resid > 1e-6*d.Norm() {
			t.Fatalf("mod %d: round-trip residual %g", mod, resid)
		}
		symsClose(t, back.ToDense(), d, 1e-14)
	}
}

func TestSymFromDenseResidual(t *testing.T) {
	// A fully random dense tensor has weight outside the conserving
	// blocks; the kept part plus the residual must account for all of it.
	rng := rand.New(rand.NewSource(8))
	legs := []Leg{
		{Dir: 1, Charges: []int{0, 1}, Dims: []int{2, 2}},
		{Dir: -1, Charges: []int{0, 1}, Dims: []int{2, 2}},
	}
	d := Rand(rng, 4, 4)
	s, resid := SymFromDense(d, 0, 0, legs)
	var total float64
	for _, v := range d.Data() {
		total += real(v)*real(v) + imag(v)*imag(v)
	}
	kept := s.Norm()
	if got := math.Sqrt(kept*kept + resid*resid); math.Abs(got-math.Sqrt(total)) > 1e-12 {
		t.Fatalf("norm split violated: kept %g resid %g total %g", kept, resid, math.Sqrt(total))
	}
	if resid == 0 {
		t.Fatal("random dense tensor should have symmetry-violating weight")
	}
}

func TestSymTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	legs := []Leg{
		{Dir: 1, Charges: []int{0, 1}, Dims: []int{2, 1}},
		{Dir: -1, Charges: []int{0, 1}, Dims: []int{3, 2}},
		{Dir: 1, Charges: []int{0, 1}, Dims: []int{1, 2}},
	}
	s := randSym(rng, 2, 0, legs)
	perm := []int{2, 0, 1}
	symsClose(t, s.Transpose(perm...).ToDense(), s.ToDense().Transpose(perm...), 1e-14)
}

func TestSymConjMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	legs := []Leg{
		{Dir: 1, Charges: []int{0, 1}, Dims: []int{2, 2}},
		{Dir: -1, Charges: []int{0, 1}, Dims: []int{2, 2}},
	}
	s := randSym(rng, 0, 1, legs)
	c := s.Conj()
	if c.Total() != -1 || c.Leg(0).Dir != -1 || c.Leg(1).Dir != 1 {
		t.Fatalf("conj charge structure wrong: total %d", c.Total())
	}
	symsClose(t, c.ToDense(), s.ToDense().Conj(), 1e-14)
}

func TestSymNormScaleClone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	legs := []Leg{
		{Dir: 1, Charges: []int{0, 1}, Dims: []int{2, 2}},
		{Dir: -1, Charges: []int{0, 1}, Dims: []int{2, 2}},
	}
	s := randSym(rng, 0, 0, legs)
	want := s.ToDense().Norm()
	if math.Abs(s.Norm()-want) > 1e-12 {
		t.Fatalf("norm %g, want %g", s.Norm(), want)
	}
	c := s.Clone()
	c.ScaleInPlace(2)
	if math.Abs(c.Norm()-2*want) > 1e-12 {
		t.Fatalf("scaled norm %g, want %g", c.Norm(), 2*want)
	}
	if math.Abs(s.Norm()-want) > 1e-12 {
		t.Fatal("scaling the clone changed the original")
	}
	if math.Abs(s.MaxAbs()-s.ToDense().MaxAbs()) > 1e-14 {
		t.Fatal("MaxAbs disagrees with dense embedding")
	}
}

func TestSymStorageAccounting(t *testing.T) {
	legs := []Leg{
		{Dir: 1, Charges: []int{0, 1}, Dims: []int{2, 3}},
		{Dir: -1, Charges: []int{0, 1}, Dims: []int{2, 3}},
	}
	s := NewSym(0, 0, legs)
	s.SetBlock(New(2, 2), 0, 0)
	s.SetBlock(New(3, 3), 1, 1)
	if s.StoredElems() != 13 {
		t.Fatalf("stored %d elems, want 13", s.StoredElems())
	}
	if s.DenseSize() != 25 {
		t.Fatalf("dense size %d, want 25", s.DenseSize())
	}
	if s.StoredBytes() != 16*13 || s.DenseBytes() != 16*25 {
		t.Fatal("byte accounting wrong")
	}
	if s.StoredBytes() >= s.DenseBytes() {
		t.Fatal("block-sparse storage should beat dense here")
	}
}

func TestEachBlockCanonicalOrder(t *testing.T) {
	legs := []Leg{
		{Dir: 1, Charges: []int{0, 1, 2}, Dims: []int{1, 1, 1}},
		{Dir: -1, Charges: []int{0, 1, 2}, Dims: []int{1, 1, 1}},
	}
	s := NewSym(0, 0, legs)
	for _, i := range []int{2, 0, 1} {
		s.SetBlock(New(1, 1), i, i)
	}
	var seen [][]int
	s.EachBlock(func(sec []int, _ *Dense) {
		seen = append(seen, append([]int{}, sec...))
	})
	for i, sec := range seen {
		if sec[0] != i || sec[1] != i {
			t.Fatalf("block %d out of canonical order: %v", i, seen)
		}
	}
}
