package peps

import (
	"fmt"

	"gokoala/internal/einsumsvd"
	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/pool"
	"gokoala/internal/quantum"
)

// ExpectationOptions configures expectation-value evaluation.
type ExpectationOptions struct {
	// M is the truncation bond dimension for boundary contractions.
	M int
	// Strategy is the einsumsvd strategy for boundary contractions
	// (Explicit ~ BMPS, ImplicitRand ~ IBMPS).
	Strategy einsumsvd.Strategy
	// UseCache enables the intermediate-caching scheme of paper section
	// IV-B: the row environments of <psi|psi> are computed once (two full
	// two-layer sweeps) and every local term is then evaluated with a
	// strip contraction.
	UseCache bool
}

// Expectation returns the Rayleigh quotient <psi|H|psi> / <psi|psi> for a
// Hamiltonian given as a sum of local terms.
func (p *PEPS) Expectation(h *quantum.Observable, opts ExpectationOptions) complex128 {
	if opts.M <= 0 {
		panic("peps: ExpectationOptions.M must be positive")
	}
	if opts.Strategy == nil {
		panic("peps: ExpectationOptions.Strategy must be set")
	}
	if ms := h.MaxSite(); ms >= p.Rows*p.Cols {
		panic(fmt.Sprintf("peps: observable touches site %d beyond lattice size %d", ms, p.Rows*p.Cols))
	}
	sp := obs.Start("peps.expectation").SetInt("terms", int64(len(h.Terms)))
	defer sp.End()
	var v complex128
	if opts.UseCache {
		sp.SetStr("mode", "cached")
		v = p.expectationCached(h, opts)
	} else {
		sp.SetStr("mode", "direct")
		v = p.expectationDirect(h, opts)
	}
	// Stage guard at the observable boundary: a NaN here is the first
	// user-visible symptom of a poisoned contraction upstream.
	health.CheckValue("peps.expectation", v)
	return v
}

// EnergyPerSite returns the real part of the expectation divided by the
// number of lattice sites, the quantity plotted in paper Figures 13-14.
func (p *PEPS) EnergyPerSite(h *quantum.Observable, opts ExpectationOptions) float64 {
	return real(p.Expectation(h, opts)) / float64(p.Rows*p.Cols)
}

// applyTermExact applies one observable term to a shallow clone of the
// state without truncation, returning |phi> = op |psi> (coefficient not
// included).
func (p *PEPS) applyTermExact(t quantum.Term) *PEPS {
	phi := p.ShallowClone()
	switch len(t.Sites) {
	case 1:
		phi.ApplyOneSite(t.Op, t.Sites[0])
	case 2:
		phi.ApplyTwoSite(t.Op, t.Sites[0], t.Sites[1], UpdateOptions{Rank: 0, Method: UpdateDirect})
	default:
		panic("peps: unsupported term arity")
	}
	return phi
}

// expectationDirect evaluates each term with a full two-layer contraction
// (paper equation 5 without caching): one contraction for the norm and
// one per term. The norm and all terms are independent lattice tasks;
// they run concurrently with per-task forked strategies and a fixed-order
// reduction, so results are bit-identical for every worker count.
func (p *PEPS) expectationDirect(h *quantum.Observable, opts ExpectationOptions) complex128 {
	n := len(h.Terms)
	sts := einsumsvd.Fork(opts.Strategy, 1+n)
	var den complex128
	vals := make([]complex128, n)
	g := pool.NewGroup("peps.expectation.terms")
	g.Go(func() { den = p.Inner(p, TwoLayerBMPS{M: opts.M, Strategy: sts[0]}) })
	for i, t := range h.Terms {
		i, t := i, t
		g.Go(func() {
			phi := p.applyTermExact(t)
			vals[i] = t.Coef * p.Inner(phi, TwoLayerBMPS{M: opts.M, Strategy: sts[1+i]})
		})
	}
	g.Wait()
	health.CheckValue("peps.norm", den)
	var num complex128
	for _, v := range vals {
		num += v
	}
	return num / den
}

// expectationCached implements paper section IV-B: two full sweeps build
// the per-row top and bottom environments of <psi|psi>, and every local
// term is evaluated by contracting only the strip of rows it touches.
// The two environment sweeps run concurrently, and so do the per-term
// strip contractions; see expectationDirect for the determinism scheme.
func (p *PEPS) expectationCached(h *quantum.Observable, opts ExpectationOptions) complex128 {
	n := len(h.Terms)
	sts := einsumsvd.Fork(opts.Strategy, 2+n)
	var tops, bottoms []boundary
	eg := pool.NewGroup("peps.expectation.env")
	eg.Go(func() { tops = p.TopEnvironments(opts.M, sts[0]) })
	eg.Go(func() { bottoms = p.BottomEnvironments(opts.M, sts[1]) })
	eg.Wait()

	den := closeBoundaries(p.eng, tops[0], bottoms[0])
	health.CheckValue("peps.norm", den)
	vals := make([]complex128, n)
	tg := pool.NewGroup("peps.expectation.terms")
	for i, t := range h.Terms {
		i, t := i, t
		st := sts[2+i]
		tg.Go(func() {
			rlo, rhi := p.termRowSpan(t)
			phi := p.applyTermExact(t)
			s := tops[rlo]
			for r := rlo; r <= rhi; r++ {
				s = applyTwoLayerRow(p.eng, s, p.row(r), phi.row(r), opts.M, st)
			}
			vals[i] = t.Coef * closeBoundaries(p.eng, s, bottoms[rhi+1])
		})
	}
	tg.Wait()
	var num complex128
	for _, v := range vals {
		num += v
	}
	return num / den
}

// termRowSpan returns the inclusive row range a term's exact application
// modifies, including any SWAP routing for non-adjacent two-site terms
// (the routing of applyRouted stays within the rows of the two sites).
func (p *PEPS) termRowSpan(t quantum.Term) (int, int) {
	rlo, rhi := p.Rows, -1
	for _, s := range t.Sites {
		r, _ := p.Coords(s)
		if r < rlo {
			rlo = r
		}
		if r > rhi {
			rhi = r
		}
	}
	return rlo, rhi
}
