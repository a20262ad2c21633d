package peps

import (
	"fmt"
	"math"
	"strconv"

	"gokoala/internal/einsumsvd"
	"gokoala/internal/obs"
	"gokoala/internal/pool"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// UpdateMethod selects the two-site operator application algorithm.
type UpdateMethod int

const (
	// UpdateQR is paper Algorithm 1: QR both site tensors, refactorize
	// the small R-G-R network, multiply back. O(d^2 r^5) time.
	UpdateQR UpdateMethod = iota
	// UpdateDirect contracts the full two-site network and refactorizes
	// it in one einsumsvd. O(d^3 r^9)-style cost; the baseline the QR
	// update improves on.
	UpdateDirect
)

// UpdateOptions configures two-site operator application.
type UpdateOptions struct {
	// Rank caps the bond dimension after the update; 0 means no
	// truncation (exact application, bond grows).
	Rank int
	// Method selects QR-SVD (default) or the direct update.
	Method UpdateMethod
	// Strategy is the einsumsvd strategy for the refactorization;
	// nil means explicit truncated SVD with balanced sigma.
	Strategy einsumsvd.Strategy
	// Normalize rescales the updated site tensors to unit Frobenius norm,
	// folding the factor into the state's LogScale. Required for long
	// imaginary-time evolutions, harmless elsewhere.
	Normalize bool
}

func (o UpdateOptions) strategy() einsumsvd.Strategy {
	if o.Strategy != nil {
		return o.Strategy
	}
	return einsumsvd.Explicit{Mode: einsumsvd.SigmaBoth}
}

// exactRank is the sentinel passed to einsumsvd for untruncated splits;
// the SVD clamps it to the true matrix rank bound.
const exactRank = 1 << 30

func (o UpdateOptions) rank() int {
	if o.Rank <= 0 {
		return exactRank
	}
	return o.Rank
}

// ApplyTwoSite applies a two-site gate (4x4 matrix or [2,2,2,2] tensor
// over (site1, site2)) to two lattice sites. Adjacent sites are updated
// directly (paper equation 4); non-adjacent sites are routed with SWAP
// chains as described in paper section II-C1.
func (p *PEPS) ApplyTwoSite(g *tensor.Dense, site1, site2 int, opts UpdateOptions) {
	p.LogScale += p.applyTwoSiteDelta(g, site1, site2, opts)
}

// applyTwoSiteDelta applies the gate and returns the LogScale delta the
// normalization produced instead of folding it in. Concurrent gate
// applications on disjoint sites go through the delta forms so the
// coordinator can sum the deltas in gate order (float addition is not
// associative; a fixed order keeps results bit-identical across worker
// counts).
func (p *PEPS) applyTwoSiteDelta(g *tensor.Dense, site1, site2 int, opts UpdateOptions) float64 {
	r1, c1 := p.Coords(site1)
	r2, c2 := p.Coords(site2)
	if site1 == site2 {
		panic("peps: two-site gate on identical sites")
	}
	sp := obs.Start("peps.update").SetStr("method", updateMethodName(opts.Method))
	defer sp.End()
	g4 := quantum.Gate4(g)
	switch {
	case r1 == r2 && abs(c1-c2) == 1:
		if c1 < c2 {
			return p.applyHorizontal(g4, r1, c1, opts)
		}
		return p.applyHorizontal(swapGateOrder(g4), r1, c2, opts)
	case c1 == c2 && abs(r1-r2) == 1:
		if r1 < r2 {
			return p.applyVertical(g4, r1, c1, opts)
		}
		return p.applyVertical(swapGateOrder(g4), r2, c1, opts)
	default:
		return p.applyRouted(g4, r1, c1, r2, c2, opts)
	}
}

// updateMethodName labels the update algorithm in trace output.
func updateMethodName(m UpdateMethod) string {
	if m == UpdateDirect {
		return "direct"
	}
	return "qr-svd"
}

// swapGateOrder reorders a two-qubit gate tensor g[i1,i2,j1,j2] to act
// with its qubit arguments exchanged.
func swapGateOrder(g4 *tensor.Dense) *tensor.Dense {
	return g4.Transpose(1, 0, 3, 2)
}

// applyRouted brings site2's qubit adjacent to site1 with a chain of SWAP
// gates, applies the gate, and swaps back (see routedApplications for the
// path construction shared with the weighted simple update).
func (p *PEPS) applyRouted(g4 *tensor.Dense, r1, c1, r2, c2 int, opts UpdateOptions) float64 {
	swap := quantum.Gate4(quantum.SWAP())
	var delta float64
	for _, step := range routedApplications(r1, c1, r2, c2) {
		if step.gate {
			delta += p.applyAdjacent(g4, step.ra, step.ca, step.rb, step.cb, opts)
		} else {
			delta += p.applyAdjacent(swap, step.ra, step.ca, step.rb, step.cb, opts)
		}
	}
	return delta
}

// applyAdjacent dispatches an adjacent-pair gate where (ra,ca) holds the
// gate's first qubit.
func (p *PEPS) applyAdjacent(g4 *tensor.Dense, ra, ca, rb, cb int, opts UpdateOptions) float64 {
	switch {
	case ra == rb && cb == ca+1:
		return p.applyHorizontal(g4, ra, ca, opts)
	case ra == rb && cb == ca-1:
		return p.applyHorizontal(swapGateOrder(g4), ra, cb, opts)
	case ca == cb && rb == ra+1:
		return p.applyVertical(g4, ra, ca, opts)
	case ca == cb && rb == ra-1:
		return p.applyVertical(swapGateOrder(g4), rb, ca, opts)
	default:
		panic(fmt.Sprintf("peps: sites (%d,%d) and (%d,%d) not adjacent", ra, ca, rb, cb))
	}
}

// applyHorizontal applies the gate to sites (r,c) and (r,c+1), with the
// gate's first qubit on (r,c).
func (p *PEPS) applyHorizontal(g4 *tensor.Dense, r, c int, opts UpdateOptions) float64 {
	a, b := p.sites[r][c], p.sites[r][c+1]
	var na, nb *tensor.Dense
	var s []float64
	if opts.Method == UpdateDirect {
		// A[a,b,c,x,p] B[e,x,f,g,q] G[i,j,p,q] -> [a,b,c,n,i] | [e,n,f,g,j]
		na, nb, s = einsumsvd.MustFactor(opts.strategy(), p.eng,
			"abcxp,exfgq,ijpq->abcni|enfgj", opts.rank(), a, b, g4)
	} else {
		// Paper Algorithm 1, steps (1)->(2): QR with environment bonds as
		// rows and (shared bond, phys) as columns.
		qa, ra := p.eng.QRSplit(a, 3)                          // [a,b,c,k], [k,x,p]
		qb, rb := p.eng.QRSplit(b.Transpose(0, 2, 3, 1, 4), 3) // rows (e,f,g): [e,f,g,l], [l,x,q]
		// Step (2)->(4): einsumsvd on the small network.
		rka, rkb, sk := einsumsvd.MustFactor(opts.strategy(), p.eng,
			"kxp,lxq,ijpq->kin|nlj", opts.rank(), ra, rb, g4)
		s = sk
		// Step (4)->(5): multiply the Q factors back.
		na = p.eng.Einsum("abck,kin->abcni", qa, rka)
		nb = p.eng.Einsum("efgl,nlj->enfgj", qb, rkb)
	}
	recordBondUpdate("h", r, c, len(s))
	p.sites[r][c] = na
	p.sites[r][c+1] = nb
	if opts.Normalize {
		return p.siteLogNorm(r, c) + p.siteLogNorm(r, c+1)
	}
	return 0
}

// applyVertical applies the gate to sites (r,c) and (r+1,c), with the
// gate's first qubit on (r,c).
func (p *PEPS) applyVertical(g4 *tensor.Dense, r, c int, opts UpdateOptions) float64 {
	a, b := p.sites[r][c], p.sites[r+1][c]
	var na, nb *tensor.Dense
	var s []float64
	if opts.Method == UpdateDirect {
		// A[a,b,x,d,p] B[x,f,g,h,q] G[i,j,p,q] -> [a,b,n,d,i] | [n,f,g,h,j]
		na, nb, s = einsumsvd.MustFactor(opts.strategy(), p.eng,
			"abxdp,xfghq,ijpq->abndi|nfghj", opts.rank(), a, b, g4)
	} else {
		qa, ra := p.eng.QRSplit(a.Transpose(0, 1, 3, 2, 4), 3) // rows (a,b,d): [a,b,d,k], [k,x,p]
		qb, rb := p.eng.QRSplit(b.Transpose(1, 2, 3, 0, 4), 3) // rows (f,g,h): [f,g,h,l], [l,x,q]
		rka, rkb, sk := einsumsvd.MustFactor(opts.strategy(), p.eng,
			"kxp,lxq,ijpq->kin|nlj", opts.rank(), ra, rb, g4)
		s = sk
		na = p.eng.Einsum("abdk,kin->abndi", qa, rka)
		nb = p.eng.Einsum("fghl,nlj->nfghj", qb, rkb)
	}
	recordBondUpdate("v", r, c, len(s))
	p.sites[r][c] = na
	p.sites[r+1][c] = nb
	if opts.Normalize {
		return p.siteLogNorm(r, c) + p.siteLogNorm(r+1, c)
	}
	return 0
}

// recordBondUpdate publishes one two-site update's telemetry: the new
// bond dimension as a per-bond labeled series plus a lattice-wide
// histogram. Bonds are labeled by direction and the (row, col) of the
// gate's first site. One atomic load while obs collection is off.
func recordBondUpdate(dir string, r, c, dim int) {
	if !obs.Enabled() {
		return
	}
	obs.Observe("peps.bond_dim", float64(dim),
		obs.Label{Key: "dir", Value: dir},
		obs.Label{Key: "row", Value: strconv.Itoa(r)},
		obs.Label{Key: "col", Value: strconv.Itoa(c)})
	obs.ObserveHist("peps.bond_dim_hist", obs.Pow2Bounds, float64(dim))
}

// normalizeSite rescales a site tensor to unit Frobenius norm, folding
// the factor into LogScale.
func (p *PEPS) normalizeSite(r, c int) {
	p.LogScale += p.siteLogNorm(r, c)
}

// siteLogNorm rescales a site tensor to unit Frobenius norm and returns
// the log of the factor without touching LogScale, so concurrent updates
// can report their scale contributions for an ordered reduction.
func (p *PEPS) siteLogNorm(r, c int) float64 {
	t := p.sites[r][c]
	n := t.Norm()
	if n == 0 {
		return 0
	}
	t.ScaleInPlace(complex(1/n, 0))
	return math.Log(n)
}

// ApplyGate dispatches a one- or two-site TrotterGate.
func (p *PEPS) ApplyGate(g quantum.TrotterGate, opts UpdateOptions) {
	p.LogScale += p.applyGateDelta(g, opts)
}

// applyGateDelta is ApplyGate returning the LogScale delta instead of
// folding it in (see applyTwoSiteDelta).
func (p *PEPS) applyGateDelta(g quantum.TrotterGate, opts UpdateOptions) float64 {
	switch len(g.Sites) {
	case 1:
		p.ApplyOneSite(g.Gate, g.Sites[0])
		if opts.Normalize {
			r, c := p.Coords(g.Sites[0])
			return p.siteLogNorm(r, c)
		}
		return 0
	case 2:
		return p.applyTwoSiteDelta(g.Gate, g.Sites[0], g.Sites[1], opts)
	default:
		panic("peps: unsupported gate arity")
	}
}

// ApplyCircuit applies a sequence of gates with the same options. Gates
// on disjoint bonds are applied concurrently in checkerboard waves (see
// gateWaves); results are bit-identical to any worker count because the
// wave schedule depends only on the gate list, per-gate strategies are
// forked deterministically, and LogScale deltas are summed in gate
// order.
func (p *PEPS) ApplyCircuit(gates []quantum.TrotterGate, opts UpdateOptions) {
	// Fork before the length test: forking advances the parent Rng, and
	// the order of draws from it is part of every seeded result.
	sts := einsumsvd.Fork(opts.Strategy, len(gates))
	if len(gates) < 2 {
		for _, g := range gates {
			p.ApplyGate(g, opts)
		}
		return
	}
	sp := obs.Start("peps.circuit").SetInt("gates", int64(len(gates)))
	defer sp.End()
	deltas := make([]float64, len(gates))
	for _, wave := range p.gateWaves(gates) {
		if len(wave) == 1 {
			i := wave[0]
			o := opts
			o.Strategy = sts[i]
			deltas[i] = p.applyGateDelta(gates[i], o)
			continue
		}
		g := pool.NewGroup("peps.circuit.wave")
		for _, i := range wave {
			i := i
			g.Go(func() {
				o := opts
				o.Strategy = sts[i]
				deltas[i] = p.applyGateDelta(gates[i], o)
			})
		}
		g.Wait()
	}
	for _, d := range deltas {
		p.LogScale += d
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
