package backend

import (
	"gokoala/internal/einsum"
	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// InstrumentedSym is Instrumented for engines that also implement the
// block-sparse kernels; Instrument returns it automatically so the
// capability survives wrapping.
type InstrumentedSym struct {
	*Instrumented
	symInner SymEngine
}

var _ SymEngine = (*InstrumentedSym)(nil)

// checkSymTensor runs the NaN/Inf stage guard over every stored block.
func checkSymTensor(stage string, t *tensor.Sym) {
	if !health.Checking() {
		return
	}
	t.EachBlock(func(_ []int, b *tensor.Dense) {
		health.CheckTensor(stage, b)
	})
}

func (ie *InstrumentedSym) SymEinsum(spec string, ops ...*tensor.Sym) *tensor.Sym {
	if !obs.Enabled() {
		out := ie.symInner.SymEinsum(spec, ops...)
		checkSymTensor("backend.symeinsum", out)
		return out
	}
	sp := obs.Start("einsum.sym").SetStr("spec", spec)
	before := ie.statsBefore()
	obsContracts.Add(1)
	var out *tensor.Sym
	var cost einsum.SymCost
	var err error
	var flops int64
	if _, ok := ie.inner.(*Dense); ok {
		out, cost, err = einsum.ContractSymWithHooks(spec, ops, obsHooks(tensor.BatchMatMul, &flops))
	} else {
		// Unknown sym engine: time the call but let it run its own path.
		out = ie.symInner.SymEinsum(spec, ops...)
	}
	if err != nil {
		sp.End()
		panic("backend: " + err.Error())
	}
	// The block, flop and dense-equivalent tallies are counted once, by
	// einsum's always-on atomics (einsum.SymStats); the span carries this
	// contraction's share.
	sp.SetInt("blocks", cost.Blocks)
	sp.SetInt("sectors", int64(cost.MaxSectors))
	sp.SetInt("flops", flops)
	sp.SetInt("dense_equiv_flops", cost.DenseFlops)
	obs.Observe("einsum.sym.sectors", float64(cost.MaxSectors))
	ie.annotate(sp, before)
	sp.End()
	checkSymTensor("backend.symeinsum", out)
	return out
}

func (ie *InstrumentedSym) SymQRSplit(t *tensor.Sym, leftAxes int) (*tensor.Sym, *tensor.Sym) {
	if !obs.Enabled() {
		q, r := ie.symInner.SymQRSplit(t, leftAxes)
		checkSymTensor("backend.symqrsplit", q)
		checkSymTensor("backend.symqrsplit", r)
		return q, r
	}
	sp := obs.Start("backend.symqrsplit")
	before := ie.statsBefore()
	q, r := ie.symInner.SymQRSplit(t, leftAxes)
	sp.SetInt("sectors", int64(q.Leg(q.Rank()-1).NumSectors()))
	ie.annotate(sp, before)
	sp.End()
	checkSymTensor("backend.symqrsplit", q)
	checkSymTensor("backend.symqrsplit", r)
	return q, r
}

func (ie *InstrumentedSym) SymSVDSplit(t *tensor.Sym, leftAxes, rank int) (*tensor.Sym, []float64, *tensor.Sym) {
	if !obs.Enabled() {
		u, s, vh := ie.symInner.SymSVDSplit(t, leftAxes, rank)
		checkSymTensor("backend.symsvd", u)
		checkSymTensor("backend.symsvd", vh)
		health.CheckFloats("backend.symsvd", s)
		return u, s, vh
	}
	sp := obs.Start("backend.symsvd")
	before := ie.statsBefore()
	u, s, vh := ie.symInner.SymSVDSplit(t, leftAxes, rank)
	sp.SetInt("rank", int64(len(s)))
	sp.SetInt("sectors", int64(u.Leg(u.Rank()-1).NumSectors()))
	ie.annotate(sp, before)
	sp.End()
	checkSymTensor("backend.symsvd", u)
	checkSymTensor("backend.symsvd", vh)
	health.CheckFloats("backend.symsvd", s)
	return u, s, vh
}
