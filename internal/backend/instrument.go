package backend

import (
	"gokoala/internal/dist"
	"gokoala/internal/einsum"
	"gokoala/internal/health"
	"gokoala/internal/linalg"
	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// Obs counter names fed by the instrumented engine (registered once).
var (
	obsGEMMFlops = obs.NewCounter("einsum.gemm.flops")
	obsGEMMCalls = obs.NewCounter("einsum.gemm.calls")
	obsMoveElems = obs.NewCounter("einsum.move.elements")
	obsMoveBytes = obs.NewCounter("einsum.move.bytes")
	obsContracts = obs.NewCounter("einsum.contractions")
)

// Instrumented decorates an Engine with obs spans and counters: every
// kernel call becomes a span (einsum, backend.qrsplit, backend.truncsvd,
// backend.orth), einsum's GEMM/move hooks feed the einsum.* counters and
// the einsum span's flops attribute, each batched GEMM gets its own
// child span, and — when the inner engine is a *Dist — every span is
// annotated with the machine-model deltas of the region (modeled
// seconds, communication bytes), so modeled time appears alongside
// measured time in traces and summaries.
//
// It is also where the health.Policy NaN/Inf stage guards live: every
// kernel result is scanned at the engine boundary (under any engine, in
// both the traced and untraced paths), so a single policy flag covers
// every backend. While obs is disabled and the health policy is off,
// every method delegates straight to the inner engine after two atomic
// loads, so wrapping is free on hot paths.
type Instrumented struct {
	inner Engine
	grid  *dist.Grid // nil unless inner is a *Dist
}

// Instrument wraps an engine with observability instrumentation.
// Wrapping an already-instrumented engine returns it unchanged. Engines
// with block-sparse kernels get the sym-capable wrapper so SymOf still
// detects the capability through the instrumentation.
func Instrument(e Engine) Engine {
	if ie, ok := e.(*Instrumented); ok {
		return ie
	}
	if ise, ok := e.(*InstrumentedSym); ok {
		return ise
	}
	ie := &Instrumented{inner: e}
	if d, ok := e.(*Dist); ok {
		ie.grid = d.Grid
	}
	if se, ok := e.(SymEngine); ok {
		return &InstrumentedSym{Instrumented: ie, symInner: se}
	}
	return ie
}

func (ie *Instrumented) Name() string { return ie.inner.Name() }

// statsBefore snapshots the grid accounting when there is a grid.
func (ie *Instrumented) statsBefore() dist.Stats {
	if ie.grid == nil {
		return dist.Stats{}
	}
	return ie.grid.Snapshot()
}

// annotate attaches the grid's machine-model delta for the region to the
// span, putting modeled seconds next to the span's measured duration.
func (ie *Instrumented) annotate(sp *obs.Span, before dist.Stats) {
	if sp == nil || ie.grid == nil {
		return
	}
	d := ie.grid.Snapshot().Sub(before)
	sp.SetFloat("modeled_s", d.ModeledSeconds())
	sp.SetFloat("modeled_comm_s", d.CommSeconds())
	sp.SetInt("comm_bytes", d.Bytes)
}

// obsHooks returns einsum hooks that count primitives, emit a child
// span per batched GEMM, and sum the contraction's GEMM flops into
// *flops — the span's flops attribute, exact for that span whatever
// runs concurrently. kernel is the multiply that actually runs (the
// grid SPMD kernel for Dist, the sequential kernel for Dense).
func obsHooks(kernel func(a, b *tensor.Dense) *tensor.Dense, flops *int64) einsum.Hooks {
	return einsum.Hooks{
		OnGEMM: func(batch, m, n, k int) {
			f := einsum.FlopCount(batch, m, n, k)
			*flops += f
			obsGEMMFlops.Add(f)
			obsGEMMCalls.Add(1)
		},
		OnMove: func(elements int) {
			obsMoveElems.Add(int64(elements))
			obsMoveBytes.Add(int64(elements) * bytesPerElem)
		},
		GEMM: func(a, b *tensor.Dense) *tensor.Dense {
			sp := obs.Start("einsum.gemm")
			out := kernel(a, b)
			sp.End()
			return out
		},
	}
}

func (ie *Instrumented) Einsum(spec string, ops ...*tensor.Dense) *tensor.Dense {
	if !obs.Enabled() {
		out := ie.inner.Einsum(spec, ops...)
		health.CheckTensor("backend.einsum", out)
		return out
	}
	sp := obs.Start("einsum").SetStr("spec", spec)
	before := ie.statsBefore()
	obsContracts.Add(1)
	var flops int64
	var hooks einsum.Hooks
	switch e := ie.inner.(type) {
	case *Dist:
		// Chain the distributed engine's metering hooks with the obs
		// observers; the GEMM child span wraps the grid SPMD kernel.
		oh := obsHooks(e.Grid.BatchMatMul, &flops)
		hooks = oh.Chain(e.Hooks())
	case *Dense:
		hooks = obsHooks(tensor.BatchMatMul, &flops)
	default:
		// Unknown engine: time the call but let it run its own path
		// (its GEMMs are not visible here, so the span carries no flops).
		out := e.Einsum(spec, ops...)
		ie.annotate(sp, before)
		sp.End()
		health.CheckTensor("backend.einsum", out)
		return out
	}
	out, err := einsum.ContractWithHooks(spec, ops, hooks)
	if err != nil {
		sp.End()
		panic("backend: " + err.Error())
	}
	ie.annotate(sp, before)
	sp.SetInt("flops", flops)
	sp.End()
	health.CheckTensor("backend.einsum", out)
	return out
}

// EinsumMixed forwards the mixed-precision contraction capability
// through the instrumentation when the inner engine has it, keeping the
// same spans, einsum.* counters, and NaN/Inf stage guard as Einsum. An
// inner engine without the capability falls back to full precision, so
// wrapping never changes which precisions are reachable.
func (ie *Instrumented) EinsumMixed(spec string, ops ...*tensor.Dense) *tensor.Dense {
	mc, ok := ie.inner.(MixedContractor)
	if !ok {
		return ie.Einsum(spec, ops...)
	}
	if !obs.Enabled() {
		out := mc.EinsumMixed(spec, ops...)
		health.CheckTensor("backend.einsum", out)
		return out
	}
	sp := obs.Start("einsum").SetStr("spec", spec).SetStr("precision", "mixed-c64")
	before := ie.statsBefore()
	obsContracts.Add(1)
	var flops int64
	hooks := obsHooks(tensor.BatchMatMulMixed, &flops)
	out, err := einsum.ContractWithHooks(spec, ops, hooks)
	if err != nil {
		sp.End()
		panic("backend: " + err.Error())
	}
	ie.annotate(sp, before)
	sp.SetInt("flops", flops)
	sp.End()
	health.CheckTensor("backend.einsum", out)
	return out
}

// checkFactorization scans the post-factorization outputs at the stage
// boundary: both tensor factors and the real singular-value/weight
// vector (where an ill-conditioned solve first shows NaN).
func checkFactorization(stage string, a, b *tensor.Dense, s []float64) {
	if !health.Checking() {
		return
	}
	health.CheckTensor(stage, a)
	health.CheckTensor(stage, b)
	health.CheckFloats(stage, s)
}

func (ie *Instrumented) QRSplit(t *tensor.Dense, leftAxes int) (*tensor.Dense, *tensor.Dense) {
	if !obs.Enabled() {
		q, r := ie.inner.QRSplit(t, leftAxes)
		checkFactorization("backend.qrsplit", q, r, nil)
		return q, r
	}
	sp := obs.Start("backend.qrsplit")
	before := ie.statsBefore()
	q, r := ie.inner.QRSplit(t, leftAxes)
	ie.annotate(sp, before)
	sp.End()
	checkFactorization("backend.qrsplit", q, r, nil)
	return q, r
}

func (ie *Instrumented) TruncSVD(m *tensor.Dense, rank int) (*tensor.Dense, []float64, *tensor.Dense) {
	if !obs.Enabled() {
		u, s, v := ie.inner.TruncSVD(m, rank)
		checkFactorization("backend.truncsvd", u, v, s)
		return u, s, v
	}
	sp := obs.Start("backend.truncsvd")
	before := ie.statsBefore()
	u, s, v := ie.inner.TruncSVD(m, rank)
	// Record the rank actually kept, not the requested cap (callers pass
	// a huge sentinel for "exact"), so summary sums stay meaningful.
	// Every engine factors the whole matrix with a thin SVD, so the flops
	// are the analytic count of its shape (what linalg charges).
	sp.SetInt("rank", int64(len(s)))
	sp.SetInt("flops", linalg.SVDFlops(m.Dim(0), m.Dim(1)))
	ie.annotate(sp, before)
	sp.End()
	checkFactorization("backend.truncsvd", u, v, s)
	return u, s, v
}

func (ie *Instrumented) Orth(x *tensor.Dense) *tensor.Dense {
	if !obs.Enabled() {
		q := ie.inner.Orth(x)
		health.CheckTensor("backend.orth", q)
		return q
	}
	sp := obs.Start("backend.orth")
	before := ie.statsBefore()
	q := ie.inner.Orth(x)
	ie.annotate(sp, before)
	sp.End()
	health.CheckTensor("backend.orth", q)
	return q
}
