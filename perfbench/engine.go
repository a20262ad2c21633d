package main

import (
	"strconv"
	"sync"
	"time"

	"gokoala/internal/backend"
	"gokoala/internal/einsum"
	"gokoala/internal/tensor"
)

// Engine call kinds the recorder times. The names are the per-layer
// metric stems (backend.<name>.calls, backend.<name>.busy_s).
const (
	kindEinsum = iota
	kindQRSplit
	kindTruncSVD
	kindOrth
	kindSymEinsum
	kindSymQRSplit
	kindSymSVDSplit
	numKinds
)

var kindNames = [numKinds]string{
	"einsum", "qrsplit", "truncsvd", "orth", "sym_einsum", "sym_qrsplit", "sym_svdsplit",
}

// recorder collects one span per engine call, and counts calls, busy
// time and the plan-derived einsum cost into its counters. Calls may
// arrive from several pool workers at once, so every field is guarded
// by mu.
type recorder struct {
	mu    sync.Mutex
	spans []interval
	c     counters
	plans map[string]einsum.Cost // memoized Compile(spec, shapes).Cost()
}

func newRecorder() *recorder {
	return &recorder{plans: map[string]einsum.Cost{}}
}

// epoch anchors nowNs, the clock every span and window is read from.
var epoch = time.Now()

// nowNs returns monotonic nanoseconds since the process started.
func nowNs() int64 { return int64(time.Since(epoch)) }

func (r *recorder) record(kind int, start int64) {
	end := nowNs()
	r.mu.Lock()
	r.spans = append(r.spans, interval{start, end})
	r.c[cCalls+kind]++
	r.c[cBusyNs+kind] += end - start
	r.mu.Unlock()
}

// addPlanCost charges the static cost of contracting spec over ops: a
// pure function of the spec and the operand shapes, so the einsum.*
// flop, byte and GEMM counts repeat exactly from run to run.
func (r *recorder) addPlanCost(spec string, ops []*tensor.Dense) {
	key := append(make([]byte, 0, 64), spec...)
	for _, op := range ops {
		for _, d := range op.Shape() {
			key = strconv.AppendInt(append(key, ','), int64(d), 10)
		}
		key = append(key, '|')
	}
	r.mu.Lock()
	c, ok := r.plans[string(key)]
	r.mu.Unlock()
	if !ok {
		shapes := make([][]int, len(ops))
		for i, op := range ops {
			shapes[i] = op.Shape()
		}
		p, err := einsum.Compile(spec, shapes)
		if err != nil {
			panic("perfbench: " + err.Error())
		}
		c = p.Cost()
	}
	r.mu.Lock()
	r.plans[string(key)] = c
	r.c[cFlops] += c.Flops
	r.c[cMovedElems] += c.MovedElements
	r.c[cGEMMs] += int64(c.GEMMs)
	r.mu.Unlock()
}

// takeSpans returns the spans recorded since the last call and forgets
// them, keeping memory flat over a long run.
func (r *recorder) takeSpans() []interval {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// timedEngine wraps the engine a CLI builds and times every call into
// it. It only observes: every call is forwarded unchanged, so results
// are bit-identical with and without it (see engine_test.go).
type timedEngine struct {
	inner backend.Engine
	rec   *recorder
}

// timedSymEngine adds the block-sparse kernels when the wrapped engine
// has them, so backend.SymOf still finds the capability.
type timedSymEngine struct {
	*timedEngine
	sym backend.SymEngine
}

var (
	_ backend.MixedContractor = (*timedEngine)(nil)
	_ backend.SymEngine       = (*timedSymEngine)(nil)
)

// wrapEngine returns e with every kernel call timed into rec,
// forwarding each optional capability e has.
func wrapEngine(e backend.Engine, rec *recorder) backend.Engine {
	te := &timedEngine{inner: e, rec: rec}
	if se, ok := backend.SymOf(e); ok {
		return &timedSymEngine{timedEngine: te, sym: se}
	}
	return te
}

func (t *timedEngine) Name() string { return t.inner.Name() }

func (t *timedEngine) Einsum(spec string, ops ...*tensor.Dense) *tensor.Dense {
	t.rec.addPlanCost(spec, ops)
	start := nowNs()
	out := t.inner.Einsum(spec, ops...)
	t.rec.record(kindEinsum, start)
	return out
}

// EinsumMixed forwards the mixed-precision capability; an inner engine
// without it runs full precision, exactly as einsumsvd would have
// chosen had it seen the inner engine directly.
func (t *timedEngine) EinsumMixed(spec string, ops ...*tensor.Dense) *tensor.Dense {
	mc, ok := t.inner.(backend.MixedContractor)
	if !ok {
		return t.Einsum(spec, ops...)
	}
	t.rec.addPlanCost(spec, ops)
	start := nowNs()
	out := mc.EinsumMixed(spec, ops...)
	t.rec.record(kindEinsum, start)
	return out
}

func (t *timedEngine) QRSplit(x *tensor.Dense, leftAxes int) (*tensor.Dense, *tensor.Dense) {
	start := nowNs()
	q, r := t.inner.QRSplit(x, leftAxes)
	t.rec.record(kindQRSplit, start)
	return q, r
}

func (t *timedEngine) TruncSVD(m *tensor.Dense, rank int) (*tensor.Dense, []float64, *tensor.Dense) {
	start := nowNs()
	u, s, v := t.inner.TruncSVD(m, rank)
	t.rec.record(kindTruncSVD, start)
	return u, s, v
}

func (t *timedEngine) Orth(x *tensor.Dense) *tensor.Dense {
	start := nowNs()
	q := t.inner.Orth(x)
	t.rec.record(kindOrth, start)
	return q
}

func (t *timedSymEngine) SymEinsum(spec string, ops ...*tensor.Sym) *tensor.Sym {
	start := nowNs()
	out := t.sym.SymEinsum(spec, ops...)
	t.rec.record(kindSymEinsum, start)
	return out
}

func (t *timedSymEngine) SymQRSplit(x *tensor.Sym, leftAxes int) (*tensor.Sym, *tensor.Sym) {
	start := nowNs()
	q, r := t.sym.SymQRSplit(x, leftAxes)
	t.rec.record(kindSymQRSplit, start)
	return q, r
}

func (t *timedSymEngine) SymSVDSplit(x *tensor.Sym, leftAxes, rank int) (*tensor.Sym, []float64, *tensor.Sym) {
	start := nowNs()
	u, s, vh := t.sym.SymSVDSplit(x, leftAxes, rank)
	t.rec.record(kindSymSVDSplit, start)
	return u, s, vh
}
