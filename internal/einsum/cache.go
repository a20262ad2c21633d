package einsum

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"

	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// Plan cache: contraction hot loops (BMPS row absorption, expectation
// sweeps) evaluate the same handful of specs over tensors of unchanging
// shapes thousands of times. Compiled plans are memoized in a bounded
// LRU keyed on (spec, operand shapes) so the planning work runs once per
// unique signature.

// DefaultPlanCacheSize is the number of compiled plans retained; a
// simulation sweep uses a few dozen distinct signatures, so the default
// never evicts in practice while still bounding memory for adversarial
// spec streams.
const DefaultPlanCacheSize = 256

// Cache traffic observability: always-on atomics back PlanCacheStats,
// so benchmarks can assert hit rates without enabling the full metrics
// layer, and the obs registry reads the same atomics (CounterFunc) for
// -metrics output and /metrics.
var planHits, planMisses, planEvictions atomic.Int64

func init() {
	obs.CounterFunc("einsum.plan.hits", planHits.Load)
	obs.CounterFunc("einsum.plan.misses", planMisses.Load)
	obs.CounterFunc("einsum.plan.evictions", planEvictions.Load)
	obs.GaugeFunc("einsum.plan_hit_ratio", func() float64 {
		h, m := planHits.Load(), planMisses.Load()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
}

type planEntry struct {
	key  string
	plan *Plan
}

var (
	planMu    sync.Mutex
	planCap   = DefaultPlanCacheSize
	planLRU   list.List
	planIndex = map[string]*list.Element{}
)

// Plan kinds namespace the cache by the engine/tensor flavor that
// compiled the plan. Dense contractions and the per-block contractions
// of the block-sparse path can present identical (spec, shapes)
// signatures; tagging the key keeps their plans from colliding if the
// two lowerings ever diverge.
const (
	planKindDense byte = 'd'
	planKindSym   byte = 's'
)

// planKey encodes the plan kind, the spec, and every operand shape.
// Ranks are implied by the spec, so flat dimension lists with separators
// are unambiguous.
func planKey(kind byte, spec string, ops []*tensor.Dense) string {
	buf := make([]byte, 0, 2+len(spec)+16*len(ops))
	buf = append(buf, kind, '!')
	buf = append(buf, spec...)
	for _, op := range ops {
		buf = append(buf, '|')
		for _, d := range op.Shape() {
			buf = strconv.AppendInt(buf, int64(d), 10)
			buf = append(buf, ',')
		}
	}
	return string(buf)
}

// cachedPlan returns the compiled plan for (kind, spec, operand
// shapes), compiling and inserting it on a miss. Compilation happens
// outside the lock; concurrent first calls may compile twice, and the
// incumbent entry wins so all callers share one scratch pool.
func cachedPlan(kind byte, spec string, ops []*tensor.Dense) (*Plan, error) {
	key := planKey(kind, spec, ops)
	planMu.Lock()
	if el, ok := planIndex[key]; ok {
		planLRU.MoveToFront(el)
		p := el.Value.(*planEntry).plan
		planMu.Unlock()
		planHits.Add(1)
		return p, nil
	}
	planMu.Unlock()
	planMisses.Add(1)

	shapes := make([][]int, len(ops))
	for i, op := range ops {
		shapes[i] = op.Shape()
	}
	p, err := Compile(spec, shapes)
	if err != nil {
		return nil, err
	}

	planMu.Lock()
	if el, ok := planIndex[key]; ok {
		planLRU.MoveToFront(el)
		p = el.Value.(*planEntry).plan
	} else {
		planIndex[key] = planLRU.PushFront(&planEntry{key, p})
		for planLRU.Len() > planCap {
			back := planLRU.Back()
			planLRU.Remove(back)
			delete(planIndex, back.Value.(*planEntry).key)
			planEvictions.Add(1)
		}
	}
	planMu.Unlock()
	return p, nil
}

// PlanCacheStats returns the cumulative plan-cache hit, miss, and
// eviction counts since process start or the last ResetPlanCache.
func PlanCacheStats() (hits, misses, evictions int64) {
	return planHits.Load(), planMisses.Load(), planEvictions.Load()
}

// ResetPlanCache empties the plan cache and zeroes its statistics.
func ResetPlanCache() {
	planMu.Lock()
	planLRU.Init()
	planIndex = map[string]*list.Element{}
	planMu.Unlock()
	planHits.Store(0)
	planMisses.Store(0)
	planEvictions.Store(0)
}

// SetPlanCacheSize bounds the cache to n plans (minimum 1), evicting
// least-recently-used entries immediately if the cache is over the new
// bound.
func SetPlanCacheSize(n int) {
	if n < 1 {
		n = 1
	}
	planMu.Lock()
	planCap = n
	for planLRU.Len() > planCap {
		back := planLRU.Back()
		planLRU.Remove(back)
		delete(planIndex, back.Value.(*planEntry).key)
		planEvictions.Add(1)
	}
	planMu.Unlock()
}
