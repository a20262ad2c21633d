// Package backend abstracts the tensor-computation substrate the PEPS
// algorithms run on, mirroring Koala's tensorbackends layer. Two engines
// are provided: Dense executes everything with the in-process sequential
// kernels (the NumPy analog), and Dist routes the heavy operations
// through the simulated distributed-memory grid (the Cyclops analog),
// with selectable orthogonalization variants that reproduce the
// qr-svd / local-gram-qr / local-gram-qr-svd algorithm family benchmarked
// in paper Figure 7.
//
// Engines instrument themselves, so every caller of a bare engine is
// traced and guarded the same way. While obs collection is on, each
// kernel call is a span (einsum with one einsum.gemm child per batched
// GEMM, backend.qrsplit, backend.truncsvd, backend.orth, and einsum.sym /
// backend.sym* for the block-sparse kernels), the einsum.* counters
// count its primitives, and on Dist each span carries the grid's
// machine-model delta of the region (modeled_s, modeled_comm_s,
// comm_bytes). Whatever the obs state, every kernel result passes the
// health.Policy NaN/Inf stage guards. With obs and the policy both off,
// a kernel call pays two atomic loads for this.
package backend

import (
	"math/rand"

	"gokoala/internal/dist"
	"gokoala/internal/einsum"
	"gokoala/internal/health"
	"gokoala/internal/linalg"
	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// Engine is the set of kernels the tensor-network layer needs. All
// tensors are plain dense tensors; engines differ in how (and at what
// modeled cost) they execute the kernels.
type Engine interface {
	// Name identifies the engine in benchmark output.
	Name() string
	// Einsum contracts a network of dense tensors.
	Einsum(spec string, ops ...*tensor.Dense) *tensor.Dense
	// QRSplit factors tensor t, with its first leftAxes axes as rows,
	// into an isometry Q and a small factor R (paper Algorithm 1 step).
	QRSplit(t *tensor.Dense, leftAxes int) (q, r *tensor.Dense)
	// TruncSVD computes the rank-truncated SVD of a matrix.
	TruncSVD(m *tensor.Dense, rank int) (u *tensor.Dense, s []float64, v *tensor.Dense)
	// Orth orthonormalizes the columns of a tall block vector; used inside
	// randomized SVD (paper Algorithm 4).
	Orth(x *tensor.Dense) *tensor.Dense
}

// Dense is the sequential in-memory engine.
type Dense struct{}

// NewDense returns the sequential engine.
func NewDense() *Dense { return &Dense{} }

func (*Dense) Name() string { return "dense" }

func (*Dense) Einsum(spec string, ops ...*tensor.Dense) *tensor.Dense {
	return contract(spec, ops, einsum.Hooks{}, nil, "")
}

func (*Dense) QRSplit(t *tensor.Dense, leftAxes int) (*tensor.Dense, *tensor.Dense) {
	sp := startSpan("backend.qrsplit", nil)
	q, r := linalg.QRSplit(t, leftAxes)
	sp.end()
	checkFactorization("backend.qrsplit", q, r, nil)
	return q, r
}

func (*Dense) TruncSVD(m *tensor.Dense, rank int) (*tensor.Dense, []float64, *tensor.Dense) {
	sp := startSpan("backend.truncsvd", nil)
	u, s, v := linalg.TruncatedSVD(m, rank)
	sp.endSVD(m, s)
	checkFactorization("backend.truncsvd", u, v, s)
	return u, s, v
}

func (*Dense) Orth(x *tensor.Dense) *tensor.Dense {
	sp := startSpan("backend.orth", nil)
	q := linalg.OrthQR(x)
	sp.end()
	health.CheckTensor("backend.orth", q)
	return q
}

// Instrument returns e unchanged: engines instrument themselves, so
// there is nothing to wrap. It is kept only because the repository
// benchmark (perfbench/) still calls it; delete it at the next change
// to the benchmark.
func Instrument(e Engine) Engine { return e }

// MixedContractor is an optional Engine capability: contraction with the
// batched GEMMs computed in reduced (complex64) precision. Engines
// without it simply run full precision — callers must treat the mixed
// path as an optimization, never a semantic switch. It powers the
// RandSVD complex64 sketch (einsumsvd.ImplicitRand.Sketch32).
type MixedContractor interface {
	// EinsumMixed contracts like Einsum with complex64 GEMM arithmetic;
	// operands and result stay complex128.
	EinsumMixed(spec string, ops ...*tensor.Dense) *tensor.Dense
}

func (*Dense) EinsumMixed(spec string, ops ...*tensor.Dense) *tensor.Dense {
	return contract(spec, ops, einsum.Hooks{GEMM: tensor.BatchMatMulMixed}, nil, "mixed-c64")
}

// RandSVDChecked runs the implicit randomized SVD of paper Algorithm 4,
// using the engine's orthogonalization kernel for the orthogonal-iteration
// steps, and returns the subspace-quality report of a deterministic probe
// (see linalg.RandSVDReport): callers inspect rep.Converged to decide
// whether the sketch resolved the operator well enough or an exact
// fallback is warranted. probeTol <= 0 selects
// health.DefaultSubspaceTol. sketch32 opts the sketch/power-iteration
// stages into complex64 arithmetic for operators that support it (see
// linalg.SketchApplier); the probe runs at full precision either way, so
// a sketch the reduced precision degraded still trips the fallback.
func RandSVDChecked(e Engine, op linalg.Operator, rank int, nIter, oversample int, rng *rand.Rand, probeTol float64, sketch32 bool) (*tensor.Dense, []float64, *tensor.Dense, linalg.Report) {
	return linalg.RandSVDReport(op, rank, linalg.RandSVDOptions{
		NIter:      nIter,
		Oversample: oversample,
		Orth:       e.Orth,
		Rng:        rng,
		Sketch32:   sketch32,
	}, probeTol)
}

// Obs counters fed by every engine's contractions.
var (
	obsGEMMFlops = obs.NewCounter("einsum.gemm.flops")
	obsGEMMCalls = obs.NewCounter("einsum.gemm.calls")
	obsMoveElems = obs.NewCounter("einsum.move.elements")
	obsMoveBytes = obs.NewCounter("einsum.move.bytes")
	obsContracts = obs.NewCounter("einsum.contractions")
)

// span is the obs span of one kernel call. startSpan returns the zero
// value while obs is off, and every method of the zero value is a
// no-op, so the untraced path costs the one obs.Enabled load.
type span struct {
	*obs.Span
	grid   *dist.Grid // the engine's grid; nil for in-memory engines
	before dist.Stats
}

func startSpan(name string, grid *dist.Grid) span {
	if !obs.Enabled() {
		return span{}
	}
	sp := span{Span: obs.Start(name), grid: grid}
	if grid != nil {
		sp.before = grid.Snapshot()
	}
	return sp
}

// annotate attaches the grid's machine-model delta since startSpan,
// putting modeled seconds next to the span's measured duration.
func (sp span) annotate() {
	if sp.Span == nil || sp.grid == nil {
		return
	}
	d := sp.grid.Snapshot().Sub(sp.before)
	sp.SetFloat("modeled_s", d.ModeledSeconds())
	sp.SetFloat("modeled_comm_s", d.CommSeconds())
	sp.SetInt("comm_bytes", d.Bytes)
}

func (sp span) end() {
	sp.annotate()
	sp.End()
}

// endSVD ends a backend.truncsvd span. It records the rank actually
// kept, not the requested cap (callers pass a huge sentinel for
// "exact"), so summary sums stay meaningful; every engine factors the
// whole matrix with a thin SVD, so the flops are the analytic count of
// its shape (what linalg charges).
func (sp span) endSVD(m *tensor.Dense, s []float64) {
	if sp.Span != nil {
		sp.SetInt("rank", int64(len(s)))
		sp.SetInt("flops", linalg.SVDFlops(m.Dim(0), m.Dim(1)))
	}
	sp.end()
}

// contract runs one einsum through the engine's hooks: hooks.GEMM is the
// batched multiply that executes it (nil: the sequential kernel), and
// its observers are the engine's own metering. Traced, the contraction
// is an einsum span whose flops attribute is this call's exact GEMM
// flops, whatever runs concurrently, with an einsum.gemm child span per
// batched multiply. precision, when set, is recorded on the span.
func contract(spec string, ops []*tensor.Dense, hooks einsum.Hooks, grid *dist.Grid, precision string) *tensor.Dense {
	sp := startSpan("einsum", grid)
	var flops *int64 // allocated only when traced: the closures capture it
	if sp.Span != nil {
		sp.SetStr("spec", spec)
		if precision != "" {
			sp.SetStr("precision", precision)
		}
		obsContracts.Add(1)
		kernel := hooks.GEMM
		if kernel == nil {
			kernel = tensor.BatchMatMul
		}
		flops = new(int64)
		hooks = obsHooks(kernel, flops).Chain(hooks)
	}
	out, err := einsum.ContractWithHooks(spec, ops, hooks)
	if err != nil {
		sp.End()
		panic("backend: " + err.Error())
	}
	if sp.Span != nil {
		sp.annotate()
		sp.SetInt("flops", *flops)
	}
	sp.End()
	health.CheckTensor("backend.einsum", out)
	return out
}

// obsHooks returns einsum hooks that count primitives, emit a child
// span per batched GEMM, and sum the contraction's GEMM flops into
// *flops. kernel is the multiply that actually runs.
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
