// Package peps implements projected entangled pair states on an open
// square lattice — the paper's primary contribution. It provides the
// evolution primitives (one- and two-site operator application, directly
// or via the QR-SVD update of paper Algorithm 1), the contraction
// algorithms (exact, boundary-MPS with explicit SVD = BMPS, with implicit
// randomized SVD = IBMPS, and the two-layer IBMPS variant), and the
// intermediate-caching expectation-value strategy of paper section IV-B.
//
// Site tensors use the axis order [up, left, down, right, phys]; boundary
// bonds have dimension one. Sites are addressed by (row, col) with row 0
// at the top, and flattened site indices are row*Cols + col, matching the
// paper's operator-site numbering.
package peps

import (
	"fmt"
	"math"
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/tensor"
)

// PEPS is a 2-D tensor network state. The represented amplitudes are the
// network contraction times exp(LogScale); the scale factor keeps site
// tensors O(1) across long imaginary-time evolutions.
type PEPS struct {
	Rows, Cols int
	// LogScale is the log of a global positive prefactor on all
	// amplitudes, maintained by normalizing updates.
	LogScale float64

	sites [][]*tensor.Dense
	eng   backend.Engine
}

// New wraps a grid of site tensors after validating shapes and bond
// consistency.
func New(eng backend.Engine, sites [][]*tensor.Dense) *PEPS {
	rows := len(sites)
	if rows == 0 || len(sites[0]) == 0 {
		panic("peps: empty lattice")
	}
	cols := len(sites[0])
	p := &PEPS{Rows: rows, Cols: cols, sites: sites, eng: eng}
	p.validate()
	return p
}

// validate panics on an inconsistent lattice; the panic form is for
// construction sites (New) where an inconsistent lattice is a programming
// error. Load validates untrusted bytes with checkValid instead, so a
// corrupt checkpoint surfaces as an error, never a crash.
func (p *PEPS) validate() {
	if err := p.checkValid(); err != nil {
		panic(err.Error())
	}
}

// checkValid verifies lattice shape and bond consistency, returning the
// first inconsistency as an error.
func (p *PEPS) checkValid() error {
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
			if r == 0 && t.Dim(0) != 1 {
				return fmt.Errorf("peps: site (%d,%d) top boundary bond %d != 1", r, c, t.Dim(0))
			}
			if r == p.Rows-1 && t.Dim(2) != 1 {
				return fmt.Errorf("peps: site (%d,%d) bottom boundary bond %d != 1", r, c, t.Dim(2))
			}
			if c == 0 && t.Dim(1) != 1 {
				return fmt.Errorf("peps: site (%d,%d) left boundary bond %d != 1", r, c, t.Dim(1))
			}
			if c == p.Cols-1 && t.Dim(3) != 1 {
				return fmt.Errorf("peps: site (%d,%d) right boundary bond %d != 1", r, c, t.Dim(3))
			}
			if r+1 < p.Rows && t.Dim(2) != p.sites[r+1][c].Dim(0) {
				return fmt.Errorf("peps: vertical bond mismatch at (%d,%d)", r, c)
			}
			if c+1 < p.Cols && t.Dim(3) != p.sites[r][c+1].Dim(1) {
				return fmt.Errorf("peps: horizontal bond mismatch at (%d,%d)", r, c)
			}
		}
	}
	return nil
}

// Engine returns the backend engine the state computes with.
func (p *PEPS) Engine() backend.Engine { return p.eng }

// Site returns the tensor at (row, col).
func (p *PEPS) Site(r, c int) *tensor.Dense { return p.sites[r][c] }

// SetSite replaces the tensor at (row, col) without validation; callers
// must preserve bond consistency.
func (p *PEPS) SetSite(r, c int, t *tensor.Dense) { p.sites[r][c] = t }

// SiteIndex returns the flattened index of (row, col).
func (p *PEPS) SiteIndex(r, c int) int { return r*p.Cols + c }

// Coords returns the (row, col) of a flattened site index.
func (p *PEPS) Coords(site int) (int, int) {
	if site < 0 || site >= p.Rows*p.Cols {
		panic(fmt.Sprintf("peps: site %d out of range", site))
	}
	return site / p.Cols, site % p.Cols
}

// Clone returns a deep copy of the state.
func (p *PEPS) Clone() *PEPS {
	sites := make([][]*tensor.Dense, p.Rows)
	for r := range sites {
		sites[r] = make([]*tensor.Dense, p.Cols)
		for c := range sites[r] {
			sites[r][c] = p.sites[r][c].Clone()
		}
	}
	return &PEPS{Rows: p.Rows, Cols: p.Cols, LogScale: p.LogScale, sites: sites, eng: p.eng}
}

// ShallowClone copies the site grid but shares the tensors; used when only
// a few sites will be replaced (operator-application copies).
func (p *PEPS) ShallowClone() *PEPS {
	sites := make([][]*tensor.Dense, p.Rows)
	for r := range sites {
		sites[r] = append([]*tensor.Dense{}, p.sites[r]...)
	}
	return &PEPS{Rows: p.Rows, Cols: p.Cols, LogScale: p.LogScale, sites: sites, eng: p.eng}
}

// MaxBond returns the largest bond dimension in the network.
func (p *PEPS) MaxBond() int {
	m := 1
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			t := p.sites[r][c]
			for _, ax := range []int{0, 1, 2, 3} {
				if t.Dim(ax) > m {
					m = t.Dim(ax)
				}
			}
		}
	}
	return m
}

// ComputationalZeros returns the product state |0...0> on a rows-by-cols
// lattice (all bond dimensions one), matching the paper's
// peps.computational_zeros.
func ComputationalZeros(eng backend.Engine, rows, cols int) *PEPS {
	return ComputationalBasis(eng, rows, cols, nil)
}

// ComputationalBasis returns the basis product state with the given bits
// in row-major order; nil means all zeros.
func ComputationalBasis(eng backend.Engine, rows, cols int, bits []int) *PEPS {
	if bits != nil && len(bits) != rows*cols {
		panic(fmt.Sprintf("peps: %d bits for %d sites", len(bits), rows*cols))
	}
	sites := make([][]*tensor.Dense, rows)
	for r := range sites {
		sites[r] = make([]*tensor.Dense, cols)
		for c := range sites[r] {
			t := tensor.New(1, 1, 1, 1, 2)
			b := 0
			if bits != nil {
				b = bits[r*cols+c] & 1
			}
			t.Set(1, 0, 0, 0, 0, b)
			sites[r][c] = t
		}
	}
	return New(eng, sites)
}

// Random returns a random PEPS with physical dimension d and uniform
// interior bond dimension bond.
func Random(eng backend.Engine, rng *rand.Rand, rows, cols, d, bond int) *PEPS {
	sites := make([][]*tensor.Dense, rows)
	dim := func(interior bool) int {
		if interior {
			return bond
		}
		return 1
	}
	for r := range sites {
		sites[r] = make([]*tensor.Dense, cols)
		for c := range sites[r] {
			u := dim(r > 0)
			l := dim(c > 0)
			dn := dim(r < rows-1)
			rt := dim(c < cols-1)
			t := tensor.Rand(rng, u, l, dn, rt, d)
			// Scale entries so contractions stay O(1) in magnitude.
			t.ScaleInPlace(complex(1/math.Sqrt(float64(u*l*dn*rt*d)), 0))
			sites[r][c] = t
		}
	}
	return New(eng, sites)
}

// RandomNoPhys returns a random PEPS without physical indices (physical
// dimension one), the workload of the paper's contraction benchmarks
// (Figure 8, Figure 11/12 contraction series).
func RandomNoPhys(eng backend.Engine, rng *rand.Rand, rows, cols, bond int) *PEPS {
	return Random(eng, rng, rows, cols, 1, bond)
}

// ApplyOneSite applies a 2x2 (more generally d'-by-d) one-site operator
// to the given site in place (paper equation 3).
func (p *PEPS) ApplyOneSite(g *tensor.Dense, site int) {
	r, c := p.Coords(site)
	if g.Rank() != 2 {
		panic("peps: one-site operator must be a matrix")
	}
	p.sites[r][c] = p.eng.Einsum("ij,uldrj->uldri", g, p.sites[r][c])
}

// Project contracts each site's physical leg with the corresponding basis
// vector <bit| and returns the resulting one-layer (physical-dimension-1)
// PEPS. Used to evaluate amplitudes <i|psi> (paper section II-C2).
func (p *PEPS) Project(bits []int) *PEPS {
	if len(bits) != p.Rows*p.Cols {
		panic(fmt.Sprintf("peps: %d bits for %d sites", len(bits), p.Rows*p.Cols))
	}
	out := p.ShallowClone()
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			t := p.sites[r][c]
			d := t.Dim(4)
			v := tensor.New(d)
			b := bits[r*p.Cols+c]
			if b < 0 || b >= d {
				panic(fmt.Sprintf("peps: bit %d out of physical range %d", b, d))
			}
			v.Set(1, b)
			proj := p.eng.Einsum("uldrp,p->uldr", t, v)
			sh := proj.Shape()
			out.sites[r][c] = proj.Reshape(sh[0], sh[1], sh[2], sh[3], 1)
		}
	}
	return out
}

// FlipVertical returns the state reflected about the horizontal axis:
// row order reversed and up/down legs swapped. Environments from below
// are computed as environments from above of the flipped state.
func (p *PEPS) FlipVertical() *PEPS {
	sites := make([][]*tensor.Dense, p.Rows)
	for r := 0; r < p.Rows; r++ {
		sites[r] = make([]*tensor.Dense, p.Cols)
		for c := 0; c < p.Cols; c++ {
			sites[r][c] = p.sites[p.Rows-1-r][c].Transpose(2, 1, 0, 3, 4)
		}
	}
	return &PEPS{Rows: p.Rows, Cols: p.Cols, LogScale: p.LogScale, sites: sites, eng: p.eng}
}
