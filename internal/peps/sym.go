package peps

import (
	"fmt"
	"math"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/obs"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// SymPEPS is a PEPS whose site tensors are charge-carrying block-sparse
// tensors: every contraction and factorization touches only the charge
// sectors a conserving evolution can populate. The leg conventions of
// a fresh state are up/left ingoing (direction -1) and down/right/phys
// outgoing (+1) with the physical leg carrying charges {0, 1}; updates
// replace bond legs with new ones whose direction may differ, so
// validation only requires each shared bond to be dual between its two
// endpoints. The physics lives entirely in the charge bookkeeping —
// embedding every site to dense (ToDense) must reproduce the state a
// dense evolution of the same gates would have produced, which is what
// the randomized equivalence tests check.
type SymPEPS struct {
	Rows, Cols int
	// LogScale is the log of a global positive prefactor on all
	// amplitudes, exactly as in the dense PEPS.
	LogScale float64

	sites [][]*tensor.Sym
	eng   backend.SymEngine
}

// NewSymPEPS wraps a grid of block-sparse site tensors after validating
// lattice shape and bond duality.
func NewSymPEPS(eng backend.SymEngine, sites [][]*tensor.Sym) *SymPEPS {
	rows := len(sites)
	if rows == 0 || len(sites[0]) == 0 {
		panic("peps: empty lattice")
	}
	p := &SymPEPS{Rows: rows, Cols: len(sites[0]), sites: sites, eng: eng}
	if err := p.checkValid(); err != nil {
		panic(err.Error())
	}
	return p
}

// trivialSymLeg is a one-sector, one-dimensional, charge-zero leg — the
// boundary bond.
func trivialSymLeg(dir int) tensor.Leg {
	return tensor.Leg{Dir: dir, Charges: []int{0}, Dims: []int{1}}
}

// PhysSymLeg is the physical qubit leg: charges {0, 1} with one state
// each. Under U(1) (mod 0) the charge counts |1> occupation; under Z2
// (mod 2) it is the bit parity.
func PhysSymLeg(dir int) tensor.Leg {
	return tensor.Leg{Dir: dir, Charges: []int{0, 1}, Dims: []int{1, 1}}
}

// checkValid verifies lattice shape, one shared mod, boundary bonds, and
// bond duality between neighbors.
func (p *SymPEPS) checkValid() error {
	mod := -1
	for r := 0; r < p.Rows; r++ {
		if len(p.sites[r]) != p.Cols {
			return fmt.Errorf("peps: ragged row %d", r)
		}
		for c := 0; c < p.Cols; c++ {
			t := p.sites[r][c]
			if t == nil {
				return fmt.Errorf("peps: missing site (%d,%d)", r, c)
			}
			if t.Rank() != 5 {
				return fmt.Errorf("peps: site (%d,%d) has rank %d, want 5", r, c, t.Rank())
			}
			if mod < 0 {
				mod = t.Mod()
			} else if t.Mod() != mod {
				return fmt.Errorf("peps: site (%d,%d) has mod %d, want %d", r, c, t.Mod(), mod)
			}
			boundary := func(ax int) bool {
				l := t.Leg(ax)
				return l.TotalDim() == 1 && l.NumSectors() == 1 && l.Charges[0] == 0
			}
			if r == 0 && !boundary(0) {
				return fmt.Errorf("peps: site (%d,%d) top boundary bond not trivial", r, c)
			}
			if r == p.Rows-1 && !boundary(2) {
				return fmt.Errorf("peps: site (%d,%d) bottom boundary bond not trivial", r, c)
			}
			if c == 0 && !boundary(1) {
				return fmt.Errorf("peps: site (%d,%d) left boundary bond not trivial", r, c)
			}
			if c == p.Cols-1 && !boundary(3) {
				return fmt.Errorf("peps: site (%d,%d) right boundary bond not trivial", r, c)
			}
			if r+1 < p.Rows && !tensor.DualLegs(t.Leg(2), p.sites[r+1][c].Leg(0)) {
				return fmt.Errorf("peps: vertical bond mismatch at (%d,%d)", r, c)
			}
			if c+1 < p.Cols && !tensor.DualLegs(t.Leg(3), p.sites[r][c+1].Leg(1)) {
				return fmt.Errorf("peps: horizontal bond mismatch at (%d,%d)", r, c)
			}
		}
	}
	return nil
}

// Mod returns the symmetry group modulus (0 for U(1), n for Z_n).
func (p *SymPEPS) Mod() int { return p.sites[0][0].Mod() }

// Site returns the tensor at (row, col).
func (p *SymPEPS) Site(r, c int) *tensor.Sym { return p.sites[r][c] }

// Coords returns the (row, col) of a flattened site index.
func (p *SymPEPS) Coords(site int) (int, int) {
	if site < 0 || site >= p.Rows*p.Cols {
		panic(fmt.Sprintf("peps: site %d out of range", site))
	}
	return site / p.Cols, site % p.Cols
}

// MaxBond returns the largest total bond dimension in the network.
func (p *SymPEPS) MaxBond() int {
	m := 1
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			for _, ax := range []int{0, 1, 2, 3} {
				if d := p.sites[r][c].Leg(ax).TotalDim(); d > m {
					m = d
				}
			}
		}
	}
	return m
}

// StateBytes returns the bytes actually stored across all site blocks.
func (p *SymPEPS) StateBytes() int64 {
	var n int64
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			n += p.sites[r][c].StoredBytes()
		}
	}
	return n
}

// DenseEquivBytes returns the bytes a dense representation of the same
// bond dimensions would occupy; StateBytes/DenseEquivBytes is the
// block-sparse memory saving.
func (p *SymPEPS) DenseEquivBytes() int64 {
	var n int64
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			n += p.sites[r][c].DenseBytes()
		}
	}
	return n
}

// NumBlocks returns the total stored-block count across all sites.
func (p *SymPEPS) NumBlocks() int {
	n := 0
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			n += p.sites[r][c].NumBlocks()
		}
	}
	return n
}

// ToDense embeds every site into its dense form, producing the ordinary
// PEPS the rest of the library (expectation values, benchmarks,
// reference checks) operates on. The embedding is exact.
func (p *SymPEPS) ToDense() *PEPS {
	sites := make([][]*tensor.Dense, p.Rows)
	for r := range sites {
		sites[r] = make([]*tensor.Dense, p.Cols)
		for c := range sites[r] {
			sites[r][c] = p.sites[r][c].ToDense()
		}
	}
	return &PEPS{Rows: p.Rows, Cols: p.Cols, LogScale: p.LogScale, sites: sites, eng: p.eng}
}

// SymComputationalBasis returns the basis product state with the given
// bits in row-major order (nil means all zeros) as a block-sparse PEPS
// under the symmetry group Z_mod (mod 0 selects U(1)). Each site stores
// exactly one 1x1x1x1x1 block: the physical sector of its bit.
func SymComputationalBasis(eng backend.SymEngine, mod, rows, cols int, bits []int) *SymPEPS {
	if bits != nil && len(bits) != rows*cols {
		panic(fmt.Sprintf("peps: %d bits for %d sites", len(bits), rows*cols))
	}
	sites := make([][]*tensor.Sym, rows)
	for r := range sites {
		sites[r] = make([]*tensor.Sym, cols)
		for c := range sites[r] {
			b := 0
			if bits != nil {
				b = bits[r*cols+c] & 1
			}
			legs := []tensor.Leg{
				trivialSymLeg(-1), trivialSymLeg(-1),
				trivialSymLeg(+1), trivialSymLeg(+1),
				PhysSymLeg(+1),
			}
			t := tensor.NewSym(mod, tensor.CanonCharge(b, mod), legs)
			blk := tensor.New(1, 1, 1, 1, 1)
			blk.Set(1, 0, 0, 0, 0, 0)
			t.SetBlock(blk, 0, 0, 0, 0, b)
			sites[r][c] = t
		}
	}
	return NewSymPEPS(eng, sites)
}

// symGateTol is the relative embedding residual above which a gate is
// declared non-conserving. Conserving gates built from exact matrix
// exponentials land at machine epsilon; a genuinely charge-violating
// gate has O(1) weight outside the allowed sectors.
const symGateTol = 1e-12

// SymGate is a Trotter gate converted to block-sparse form.
type SymGate struct {
	Sites []int
	// Gate has legs [i, p] (one-site) or [i, j, p, q] (two-site) with
	// the out indices carrying direction +1 and the in indices -1, and
	// total charge zero — the statement of charge conservation.
	Gate *tensor.Sym
}

// SymOneSiteGate converts a 2x2 gate to block-sparse form; ok is false
// when the gate does not conserve charge.
func SymOneSiteGate(g *tensor.Dense, mod int) (*tensor.Sym, bool) {
	legs := []tensor.Leg{PhysSymLeg(+1), PhysSymLeg(-1)}
	s, resid := tensor.SymFromDense(g, mod, 0, legs)
	return s, resid <= symGateTol*g.Norm()
}

// SymTwoSiteGate converts a two-site gate (4x4 or [2,2,2,2] over
// (site1, site2)) to block-sparse form; ok is false when the gate does
// not conserve charge.
func SymTwoSiteGate(g *tensor.Dense, mod int) (*tensor.Sym, bool) {
	g4 := quantum.Gate4(g)
	legs := []tensor.Leg{PhysSymLeg(+1), PhysSymLeg(+1), PhysSymLeg(-1), PhysSymLeg(-1)}
	s, resid := tensor.SymFromDense(g4, mod, 0, legs)
	return s, resid <= symGateTol*g4.Norm()
}

// SymTrotterGates converts a dense gate list to block-sparse form. The
// second result is false — with no gates converted — when any gate
// fails to conserve charge; callers then fall back to the dense path
// for the whole circuit (projecting individual gates onto the conserved
// sectors would silently discard amplitude).
func SymTrotterGates(gates []quantum.TrotterGate, mod int) ([]SymGate, bool) {
	out := make([]SymGate, 0, len(gates))
	for _, g := range gates {
		var sg *tensor.Sym
		var ok bool
		switch len(g.Sites) {
		case 1:
			sg, ok = SymOneSiteGate(g.Gate, mod)
		case 2:
			sg, ok = SymTwoSiteGate(g.Gate, mod)
		default:
			return nil, false
		}
		if !ok {
			return nil, false
		}
		out = append(out, SymGate{Sites: append([]int{}, g.Sites...), Gate: sg})
	}
	return out, true
}

// ApplyOneSite applies a converted one-site gate in place.
func (p *SymPEPS) ApplyOneSite(g *tensor.Sym, site int) {
	r, c := p.Coords(site)
	if g.Rank() != 2 {
		panic("peps: one-site operator must be a matrix")
	}
	p.sites[r][c] = p.eng.SymEinsum("ij,uldrj->uldri", g, p.sites[r][c])
}

// SymUpdateOptions configures block-sparse two-site updates. Only the
// QR-SVD update (paper Algorithm 1) with the balanced-sigma explicit
// refactorization is implemented: randomized sketching mixes charge
// sectors, so the implicit strategies stay dense-only.
type SymUpdateOptions struct {
	// Rank caps the total bond dimension after the update; 0 means no
	// truncation.
	Rank int
	// Normalize rescales updated site tensors to unit Frobenius norm,
	// folding the factor into LogScale.
	Normalize bool
}

func (o SymUpdateOptions) rank() int {
	if o.Rank <= 0 {
		return exactRank
	}
	return o.Rank
}

// ApplyTwoSite applies a converted two-site gate g4 (legs [i,j,p,q]
// over (site1, site2)) to two lattice sites, routing non-adjacent pairs
// with SWAP chains exactly like the dense path.
func (p *SymPEPS) ApplyTwoSite(g4 *tensor.Sym, site1, site2 int, opts SymUpdateOptions) {
	r1, c1 := p.Coords(site1)
	r2, c2 := p.Coords(site2)
	if site1 == site2 {
		panic("peps: two-site gate on identical sites")
	}
	sp := obs.Start("peps.update").SetStr("method", "sym-qr-svd")
	defer sp.End()
	switch {
	case r1 == r2 && abs(c1-c2) == 1:
		if c1 < c2 {
			p.applySymHorizontal(g4, r1, c1, opts)
		} else {
			p.applySymHorizontal(swapSymGateOrder(g4), r1, c2, opts)
		}
	case c1 == c2 && abs(r1-r2) == 1:
		if r1 < r2 {
			p.applySymVertical(g4, r1, c1, opts)
		} else {
			p.applySymVertical(swapSymGateOrder(g4), r2, c1, opts)
		}
	default:
		swap, ok := SymTwoSiteGate(quantum.SWAP(), p.Mod())
		if !ok {
			panic("peps: SWAP gate must conserve charge")
		}
		for _, step := range routedApplications(r1, c1, r2, c2) {
			g := swap
			if step.gate {
				g = g4
			}
			p.applySymAdjacent(g, step.ra, step.ca, step.rb, step.cb, opts)
		}
	}
}

// swapSymGateOrder reorders a two-qubit gate tensor g[i1,i2,j1,j2] to
// act with its qubit arguments exchanged.
func swapSymGateOrder(g4 *tensor.Sym) *tensor.Sym {
	return g4.Transpose(1, 0, 3, 2)
}

func (p *SymPEPS) applySymAdjacent(g4 *tensor.Sym, ra, ca, rb, cb int, opts SymUpdateOptions) {
	switch {
	case ra == rb && cb == ca+1:
		p.applySymHorizontal(g4, ra, ca, opts)
	case ra == rb && cb == ca-1:
		p.applySymHorizontal(swapSymGateOrder(g4), ra, cb, opts)
	case ca == cb && rb == ra+1:
		p.applySymVertical(g4, ra, ca, opts)
	case ca == cb && rb == ra-1:
		p.applySymVertical(swapSymGateOrder(g4), rb, ca, opts)
	default:
		panic(fmt.Sprintf("peps: sites (%d,%d) and (%d,%d) not adjacent", ra, ca, rb, cb))
	}
}

// applySymHorizontal is the QR-SVD update of paper Algorithm 1 on sites
// (r,c) and (r,c+1), every kernel running block by block.
func (p *SymPEPS) applySymHorizontal(g4 *tensor.Sym, r, c int, opts SymUpdateOptions) {
	a, b := p.sites[r][c], p.sites[r][c+1]
	qa, ra := p.eng.SymQRSplit(a, 3)                          // [a,b,c,k], [k,x,p]
	qb, rb := p.eng.SymQRSplit(b.Transpose(0, 2, 3, 1, 4), 3) // rows (e,f,g): [e,f,g,l], [l,x,q]
	rka, rkb, s := einsumsvd.MustSymFactor(p.eng, einsumsvd.SigmaBoth,
		"kxp,lxq,ijpq->kin|nlj", opts.rank(), ra, rb, g4)
	p.sites[r][c] = p.eng.SymEinsum("abck,kin->abcni", qa, rka)
	p.sites[r][c+1] = p.eng.SymEinsum("efgl,nlj->enfgj", qb, rkb)
	recordBondUpdate("h", r, c, len(s))
	if opts.Normalize {
		p.normalizeSymSite(r, c)
		p.normalizeSymSite(r, c+1)
	}
}

// applySymVertical is the same update on sites (r,c) and (r+1,c).
func (p *SymPEPS) applySymVertical(g4 *tensor.Sym, r, c int, opts SymUpdateOptions) {
	a, b := p.sites[r][c], p.sites[r+1][c]
	qa, ra := p.eng.SymQRSplit(a.Transpose(0, 1, 3, 2, 4), 3) // rows (a,b,d): [a,b,d,k], [k,x,p]
	qb, rb := p.eng.SymQRSplit(b.Transpose(1, 2, 3, 0, 4), 3) // rows (f,g,h): [f,g,h,l], [l,x,q]
	rka, rkb, s := einsumsvd.MustSymFactor(p.eng, einsumsvd.SigmaBoth,
		"kxp,lxq,ijpq->kin|nlj", opts.rank(), ra, rb, g4)
	p.sites[r][c] = p.eng.SymEinsum("abdk,kin->abndi", qa, rka)
	p.sites[r+1][c] = p.eng.SymEinsum("fghl,nlj->nfghj", qb, rkb)
	recordBondUpdate("v", r, c, len(s))
	if opts.Normalize {
		p.normalizeSymSite(r, c)
		p.normalizeSymSite(r+1, c)
	}
}

// normalizeSymSite rescales a site tensor to unit Frobenius norm,
// folding the factor into LogScale.
func (p *SymPEPS) normalizeSymSite(r, c int) {
	t := p.sites[r][c]
	n := t.Norm()
	if n == 0 {
		return
	}
	t.ScaleInPlace(complex(1/n, 0))
	p.LogScale += math.Log(n)
}

// ApplyGate dispatches a converted one- or two-site gate.
func (p *SymPEPS) ApplyGate(g SymGate, opts SymUpdateOptions) {
	switch len(g.Sites) {
	case 1:
		p.ApplyOneSite(g.Gate, g.Sites[0])
		if opts.Normalize {
			r, c := p.Coords(g.Sites[0])
			p.normalizeSymSite(r, c)
		}
	case 2:
		p.ApplyTwoSite(g.Gate, g.Sites[0], g.Sites[1], opts)
	default:
		panic("peps: unsupported gate arity")
	}
}

// ApplyCircuit applies a sequence of converted gates with the same
// options, strictly sequentially: the per-gate work already runs the
// parallel dense kernels block by block, and a fixed application order
// keeps results bit-identical at any worker count with no wave
// scheduling or delta reduction needed.
func (p *SymPEPS) ApplyCircuit(gates []SymGate, opts SymUpdateOptions) {
	sp := obs.Start("peps.circuit").SetInt("gates", int64(len(gates)))
	defer sp.End()
	for _, g := range gates {
		p.ApplyGate(g, opts)
	}
}
