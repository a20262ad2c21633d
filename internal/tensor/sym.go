// Block-sparse tensors with an abelian charge symmetry (U(1) or Z_n).
//
// A Sym tensor carries a charge structure on every leg: the leg's index
// space is partitioned into contiguous sectors, each labeled by an
// integer charge, and the tensor stores only the dense blocks whose
// sector charges satisfy the conservation rule
//
//	sum_i Dir_i * q_i  ==  Total   (exactly for U(1), mod n for Z_n)
//
// where Dir_i is the leg's direction (+1 outgoing, -1 incoming). All
// other entries are structurally zero and never materialized. Blocks are
// keyed by their sector-index tuple and always iterated in ascending
// key order, so every reduction over blocks is deterministic.
package tensor

import (
	"fmt"
	"math"
	"sort"
)

// maxLegSectors bounds the per-leg sector count so block keys fit in one
// byte per leg; far above anything a PEPS bond develops in practice.
const maxLegSectors = 255

// Leg describes one index of a block-sparse symmetric tensor: its
// direction and the charge/size of each sector, in strictly ascending
// charge order (the canonical sector order).
type Leg struct {
	// Dir is +1 for an outgoing leg, -1 for an incoming leg.
	Dir int
	// Charges lists the sector charges in strictly ascending order. For
	// Z_n tensors charges must lie in [0, n).
	Charges []int
	// Dims lists the sector dimensions, parallel to Charges, all > 0.
	Dims []int
}

// NumSectors returns the sector count of the leg.
func (l Leg) NumSectors() int { return len(l.Charges) }

// TotalDim returns the dense dimension of the leg (sum of sector dims).
func (l Leg) TotalDim() int {
	d := 0
	for _, x := range l.Dims {
		d += x
	}
	return d
}

// Offsets returns the dense start offset of every sector.
func (l Leg) Offsets() []int {
	off := make([]int, len(l.Dims))
	s := 0
	for i, d := range l.Dims {
		off[i] = s
		s += d
	}
	return off
}

// Dual returns the leg with its direction flipped; the charge structure
// is unchanged. A bond is contractible exactly between a leg and its
// dual.
func (l Leg) Dual() Leg {
	return Leg{Dir: -l.Dir, Charges: append([]int{}, l.Charges...), Dims: append([]int{}, l.Dims...)}
}

// cloneLeg deep-copies a leg.
func cloneLeg(l Leg) Leg {
	return Leg{Dir: l.Dir, Charges: append([]int{}, l.Charges...), Dims: append([]int{}, l.Dims...)}
}

// DualLegs reports whether a and b form a contractible bond: identical
// charges and dims, opposite directions.
func DualLegs(a, b Leg) bool {
	if a.Dir != -b.Dir || len(a.Charges) != len(b.Charges) {
		return false
	}
	for i := range a.Charges {
		if a.Charges[i] != b.Charges[i] || a.Dims[i] != b.Dims[i] {
			return false
		}
	}
	return true
}

// CanonCharge maps a charge to its canonical representative: the value
// itself for U(1) (mod 0), the least non-negative residue for Z_n.
func CanonCharge(q, mod int) int {
	if mod <= 0 {
		return q
	}
	q %= mod
	if q < 0 {
		q += mod
	}
	return q
}

// Sym is a block-sparse tensor under an abelian charge symmetry. The
// zero value is not usable; construct with NewSym or SymFromDense.
type Sym struct {
	mod    int // 0 selects U(1); n >= 2 selects Z_n
	total  int // canonical total charge
	legs   []Leg
	blocks map[string]*Dense
}

// NewSym returns an empty (all structural zeros) block-sparse tensor
// with the given group modulus (0 for U(1), 2 for Z2), total charge, and
// legs. It panics on an inconsistent leg description, mirroring New.
func NewSym(mod, total int, legs []Leg) *Sym {
	if mod < 0 || mod == 1 {
		panic(fmt.Sprintf("tensor: invalid symmetry modulus %d", mod))
	}
	ls := make([]Leg, len(legs))
	for i, l := range legs {
		if l.Dir != 1 && l.Dir != -1 {
			panic(fmt.Sprintf("tensor: leg %d direction %d, want +1 or -1", i, l.Dir))
		}
		if len(l.Charges) == 0 || len(l.Charges) != len(l.Dims) {
			panic(fmt.Sprintf("tensor: leg %d has %d charges and %d dims", i, len(l.Charges), len(l.Dims)))
		}
		if len(l.Charges) > maxLegSectors {
			panic(fmt.Sprintf("tensor: leg %d has %d sectors, max %d", i, len(l.Charges), maxLegSectors))
		}
		for j := range l.Charges {
			if l.Dims[j] <= 0 {
				panic(fmt.Sprintf("tensor: leg %d sector %d has dim %d", i, j, l.Dims[j]))
			}
			if j > 0 && l.Charges[j] <= l.Charges[j-1] {
				panic(fmt.Sprintf("tensor: leg %d charges not strictly ascending", i))
			}
			if mod > 0 && (l.Charges[j] < 0 || l.Charges[j] >= mod) {
				panic(fmt.Sprintf("tensor: leg %d charge %d outside [0,%d)", i, l.Charges[j], mod))
			}
		}
		ls[i] = cloneLeg(l)
	}
	return &Sym{mod: mod, total: CanonCharge(total, mod), legs: ls, blocks: map[string]*Dense{}}
}

// Mod returns the group modulus: 0 for U(1), n for Z_n.
func (s *Sym) Mod() int { return s.mod }

// Total returns the canonical total charge of the tensor.
func (s *Sym) Total() int { return s.total }

// Rank returns the number of legs.
func (s *Sym) Rank() int { return len(s.legs) }

// Leg returns a copy of the i-th leg description.
func (s *Sym) Leg(i int) Leg { return cloneLeg(s.legs[i]) }

// Legs returns a copy of all leg descriptions.
func (s *Sym) Legs() []Leg {
	out := make([]Leg, len(s.legs))
	for i, l := range s.legs {
		out[i] = cloneLeg(l)
	}
	return out
}

// Shape returns the dense-equivalent shape (total dim per leg).
func (s *Sym) Shape() []int {
	sh := make([]int, len(s.legs))
	for i, l := range s.legs {
		sh[i] = l.TotalDim()
	}
	return sh
}

// DenseSize returns the dense-equivalent element count.
func (s *Sym) DenseSize() int {
	n := 1
	for _, l := range s.legs {
		n *= l.TotalDim()
	}
	return n
}

// NumBlocks returns the number of stored blocks.
func (s *Sym) NumBlocks() int { return len(s.blocks) }

// StoredElems returns the number of complex elements actually stored.
func (s *Sym) StoredElems() int64 {
	var n int64
	for _, b := range s.blocks {
		n += int64(b.Size())
	}
	return n
}

// StoredBytes returns the stored payload size in bytes (16 per element).
func (s *Sym) StoredBytes() int64 { return 16 * s.StoredElems() }

// DenseBytes returns the dense-equivalent payload size in bytes.
func (s *Sym) DenseBytes() int64 { return 16 * int64(s.DenseSize()) }

func (s *Sym) key(sectors []int) string {
	if len(sectors) != len(s.legs) {
		panic(fmt.Sprintf("tensor: sector tuple length %d, want %d", len(sectors), len(s.legs)))
	}
	buf := make([]byte, len(sectors))
	for i, sec := range sectors {
		if sec < 0 || sec >= len(s.legs[i].Charges) {
			panic(fmt.Sprintf("tensor: sector %d out of range for leg %d", sec, i))
		}
		buf[i] = byte(sec)
	}
	return string(buf)
}

func keySectors(key string) []int {
	out := make([]int, len(key))
	for i := 0; i < len(key); i++ {
		out[i] = int(key[i])
	}
	return out
}

// SectorCharge returns the canonical charge sum_i Dir_i * q_i of a
// sector tuple.
func (s *Sym) SectorCharge(sectors []int) int {
	q := 0
	for i, sec := range sectors {
		q += s.legs[i].Dir * s.legs[i].Charges[sec]
	}
	return CanonCharge(q, s.mod)
}

// Allowed reports whether the sector tuple satisfies charge
// conservation and may hold a block.
func (s *Sym) Allowed(sectors []int) bool {
	return s.SectorCharge(sectors) == s.total
}

// blockShape returns the dense shape of the block at a sector tuple.
func (s *Sym) blockShape(sectors []int) []int {
	sh := make([]int, len(sectors))
	for i, sec := range sectors {
		sh[i] = s.legs[i].Dims[sec]
	}
	return sh
}

// SetBlock stores d as the block at the sector tuple, validating charge
// conservation and the block shape. The tensor takes ownership of d.
func (s *Sym) SetBlock(d *Dense, sectors ...int) {
	k := s.key(sectors)
	if !s.Allowed(sectors) {
		panic(fmt.Sprintf("tensor: block %v violates charge conservation (charge %d, total %d)",
			sectors, s.SectorCharge(sectors), s.total))
	}
	want := s.blockShape(sectors)
	got := d.Shape()
	if len(got) != len(want) {
		panic(fmt.Sprintf("tensor: block %v rank %d, want %d", sectors, len(got), len(want)))
	}
	for i := range want {
		if got[i] != want[i] {
			panic(fmt.Sprintf("tensor: block %v shape %v, want %v", sectors, got, want))
		}
	}
	s.blocks[k] = d
}

// AddToBlock accumulates d into the block at the sector tuple, creating
// it when absent. Used by block-wise contraction to sum sector
// contributions.
func (s *Sym) AddToBlock(d *Dense, sectors ...int) {
	k := s.key(sectors)
	if cur, ok := s.blocks[k]; ok {
		cd, dd := cur.Data(), d.Data()
		if len(cd) != len(dd) {
			panic(fmt.Sprintf("tensor: accumulating block %v size %d into %d", sectors, len(dd), len(cd)))
		}
		for i := range cd {
			cd[i] += dd[i]
		}
		return
	}
	s.SetBlock(d, sectors...)
}

// sortedKeys returns the block keys in canonical (ascending sector
// tuple) order.
func (s *Sym) sortedKeys() []string {
	keys := make([]string, 0, len(s.blocks))
	for k := range s.blocks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// EachBlock calls f for every stored block in canonical order. The
// sectors slice is reused between calls; copy it to retain.
func (s *Sym) EachBlock(f func(sectors []int, b *Dense)) {
	for _, k := range s.sortedKeys() {
		f(keySectors(k), s.blocks[k])
	}
}

// Clone returns a deep copy.
func (s *Sym) Clone() *Sym {
	out := NewSym(s.mod, s.total, s.legs)
	for k, b := range s.blocks {
		out.blocks[k] = b.Clone()
	}
	return out
}

// Conj returns the element-wise complex conjugate with every leg
// direction flipped and the total charge negated — the charge structure
// of <psi| given |psi>.
func (s *Sym) Conj() *Sym {
	legs := make([]Leg, len(s.legs))
	for i, l := range s.legs {
		legs[i] = l.Dual()
	}
	out := NewSym(s.mod, CanonCharge(-s.total, s.mod), legs)
	for k, b := range s.blocks {
		out.blocks[k] = b.Conj()
	}
	return out
}

// Transpose permutes the legs: result leg i is input leg perm[i], like
// Dense.Transpose.
func (s *Sym) Transpose(perm ...int) *Sym {
	if len(perm) != len(s.legs) {
		panic(fmt.Sprintf("tensor: transpose permutation length %d, want %d", len(perm), len(s.legs)))
	}
	legs := make([]Leg, len(perm))
	for i, p := range perm {
		legs[i] = s.legs[p]
	}
	out := NewSym(s.mod, s.total, legs)
	for k, b := range s.blocks {
		sec := keySectors(k)
		nsec := make([]int, len(perm))
		for i, p := range perm {
			nsec[i] = sec[p]
		}
		out.blocks[out.key(nsec)] = b.Transpose(perm...)
	}
	return out
}

// ScaleInPlace multiplies every stored element by alpha.
func (s *Sym) ScaleInPlace(alpha complex128) {
	for _, k := range s.sortedKeys() {
		s.blocks[k].ScaleInPlace(alpha)
	}
}

// Norm returns the Frobenius norm, accumulated in canonical block order
// so the result is deterministic.
func (s *Sym) Norm() float64 {
	var sum float64
	for _, k := range s.sortedKeys() {
		for _, v := range s.blocks[k].Data() {
			re, im := real(v), imag(v)
			sum += re*re + im*im
		}
	}
	return math.Sqrt(sum)
}

// MaxAbs returns the largest element magnitude.
func (s *Sym) MaxAbs() float64 {
	var m float64
	for _, b := range s.blocks {
		if x := b.MaxAbs(); x > m {
			m = x
		}
	}
	return m
}

// eachSectorTuple enumerates every sector tuple of the legs in
// lexicographic order.
func eachSectorTuple(legs []Leg, f func(sectors []int)) {
	sec := make([]int, len(legs))
	for {
		f(sec)
		i := len(legs) - 1
		for ; i >= 0; i-- {
			sec[i]++
			if sec[i] < len(legs[i].Charges) {
				break
			}
			sec[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// copyBlock copies between the dense embedding and a block. shape is the
// block shape, dOff the dense offsets of the block origin, dStride the
// dense strides; toDense selects direction.
func copyBlock(dense, block []complex128, shape, dOff, dStride []int, toDense bool) {
	if len(shape) == 0 {
		if toDense {
			dense[0] = block[0]
		} else {
			block[0] = dense[0]
		}
		return
	}
	base := 0
	for i := range dOff {
		base += dOff[i] * dStride[i]
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	idx := make([]int, len(shape))
	for flat := 0; flat < n; flat++ {
		dpos := base
		for i := range idx {
			dpos += idx[i] * dStride[i]
		}
		if toDense {
			dense[dpos] = block[flat]
		} else {
			block[flat] = dense[dpos]
		}
		for i := len(idx) - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < shape[i] {
				break
			}
			idx[i] = 0
		}
	}
}

// ToDense embeds the block-sparse tensor into its dense equivalent,
// placing each block at its sector offsets and zeros elsewhere.
func (s *Sym) ToDense() *Dense {
	out := New(s.Shape()...)
	stride := Strides(out.Shape())
	offs := make([][]int, len(s.legs))
	for i, l := range s.legs {
		offs[i] = l.Offsets()
	}
	s.EachBlock(func(sectors []int, b *Dense) {
		dOff := make([]int, len(sectors))
		for i, sec := range sectors {
			dOff[i] = offs[i][sec]
		}
		copyBlock(out.Data(), b.Data(), s.blockShape(sectors), dOff, stride, true)
	})
	return out
}

// SymFromDense projects a dense tensor onto the charge-conserving
// blocks of the given structure. It returns the block-sparse tensor and
// the Frobenius norm of the discarded (symmetry-violating) part, so
// callers can decide whether the input actually conserved the charge.
// Blocks that are exactly zero are not stored.
func SymFromDense(d *Dense, mod, total int, legs []Leg) (*Sym, float64) {
	out := NewSym(mod, total, legs)
	sh := d.Shape()
	want := out.Shape()
	if len(sh) != len(want) {
		panic(fmt.Sprintf("tensor: dense rank %d does not match %d legs", len(sh), len(want)))
	}
	for i := range sh {
		if sh[i] != want[i] {
			panic(fmt.Sprintf("tensor: dense shape %v does not match leg dims %v", sh, want))
		}
	}
	stride := Strides(sh)
	offs := make([][]int, len(legs))
	for i := range out.legs {
		offs[i] = out.legs[i].Offsets()
	}
	var totalSq, keptSq float64
	for _, v := range d.Data() {
		re, im := real(v), imag(v)
		totalSq += re*re + im*im
	}
	eachSectorTuple(out.legs, func(sectors []int) {
		if !out.Allowed(sectors) {
			return
		}
		shape := out.blockShape(sectors)
		blk := New(shape...)
		dOff := make([]int, len(sectors))
		for i, sec := range sectors {
			dOff[i] = offs[i][sec]
		}
		copyBlock(d.Data(), blk.Data(), shape, dOff, stride, false)
		zero := true
		for _, v := range blk.Data() {
			if v != 0 {
				zero = false
				re, im := real(v), imag(v)
				keptSq += re*re + im*im
			}
		}
		if !zero {
			out.SetBlock(blk, sectors...)
		}
	})
	resid := totalSq - keptSq
	if resid < 0 {
		resid = 0
	}
	return out, math.Sqrt(resid)
}

// String renders a compact structural description for debugging.
func (s *Sym) String() string {
	return fmt.Sprintf("Sym(mod=%d total=%d legs=%v blocks=%d/%d stored=%d elems)",
		s.mod, s.total, s.Shape(), len(s.blocks), s.DenseSize(), s.StoredElems())
}
