package backend

import (
	"gokoala/internal/einsum"
	"gokoala/internal/health"
	"gokoala/internal/linalg"
	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// SymEngine is the optional capability interface for engines that can
// execute kernels on block-sparse symmetric tensors directly, block by
// block. Engines without it still run symmetric workloads — callers
// detect the capability with SymOf and otherwise embed to dense.
type SymEngine interface {
	Engine
	// SymEinsum contracts a network of block-sparse tensors.
	SymEinsum(spec string, ops ...*tensor.Sym) *tensor.Sym
	// SymQRSplit factors t (first leftAxes legs as rows) sector by
	// sector into an isometry Q and a factor R joined by a new bond leg.
	SymQRSplit(t *tensor.Sym, leftAxes int) (q, r *tensor.Sym)
	// SymSVDSplit factors t into U, singular values, and V† with the
	// retained rank chosen globally across charge sectors.
	SymSVDSplit(t *tensor.Sym, leftAxes, rank int) (u *tensor.Sym, s []float64, vh *tensor.Sym)
}

// SymOf reports whether e supports block-sparse kernels, returning the
// capability if so.
func SymOf(e Engine) (SymEngine, bool) {
	se, ok := e.(SymEngine)
	return se, ok
}

func (*Dense) SymEinsum(spec string, ops ...*tensor.Sym) *tensor.Sym {
	sp := startSpan("einsum.sym", nil)
	var hooks einsum.Hooks
	var flops *int64 // allocated only when traced, as in contract
	if sp.Span != nil {
		sp.SetStr("spec", spec)
		obsContracts.Add(1)
		flops = new(int64)
		hooks = obsHooks(tensor.BatchMatMul, flops)
	}
	out, cost, err := einsum.ContractSymWithHooks(spec, ops, hooks)
	if err != nil {
		sp.End()
		panic("backend: " + err.Error())
	}
	if sp.Span != nil {
		// The block, flop and dense-equivalent tallies are counted once,
		// by einsum's always-on atomics (einsum.SymStats); the span
		// carries this contraction's share.
		sp.SetInt("blocks", cost.Blocks)
		sp.SetInt("sectors", int64(cost.MaxSectors))
		sp.SetInt("flops", *flops)
		sp.SetInt("dense_equiv_flops", cost.DenseFlops)
		obs.Observe("einsum.sym.sectors", float64(cost.MaxSectors))
	}
	sp.end()
	checkSymTensor("backend.symeinsum", out)
	return out
}

func (*Dense) SymQRSplit(t *tensor.Sym, leftAxes int) (*tensor.Sym, *tensor.Sym) {
	sp := startSpan("backend.symqrsplit", nil)
	q, r := linalg.SymQRSplit(t, leftAxes)
	if sp.Span != nil {
		sp.SetInt("sectors", int64(q.Leg(q.Rank()-1).NumSectors()))
	}
	sp.end()
	checkSymTensor("backend.symqrsplit", q)
	checkSymTensor("backend.symqrsplit", r)
	return q, r
}

func (*Dense) SymSVDSplit(t *tensor.Sym, leftAxes, rank int) (*tensor.Sym, []float64, *tensor.Sym) {
	sp := startSpan("backend.symsvd", nil)
	u, s, vh := linalg.SymSVDSplit(t, leftAxes, rank)
	if sp.Span != nil {
		sp.SetInt("rank", int64(len(s)))
		sp.SetInt("sectors", int64(u.Leg(u.Rank()-1).NumSectors()))
	}
	sp.end()
	checkSymTensor("backend.symsvd", u)
	checkSymTensor("backend.symsvd", vh)
	health.CheckFloats("backend.symsvd", s)
	return u, s, vh
}

// checkSymTensor runs the NaN/Inf stage guard over every stored block.
func checkSymTensor(stage string, t *tensor.Sym) {
	if !health.Checking() {
		return
	}
	t.EachBlock(func(_ []int, b *tensor.Dense) {
		health.CheckTensor(stage, b)
	})
}
