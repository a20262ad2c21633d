package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// The metrics registry. Every metric of the process is enumerated here,
// exactly once: gated counters owned by obs (incremented from hot paths,
// including concurrent rank goroutines, with a single atomic op that is
// skipped entirely while collection is disabled), always-on counters
// and gauges owned by other packages (CounterFunc, GaugeFunc), and the
// labeled series and histograms of series.go.

var registry struct {
	mu       sync.Mutex
	counters []*Counter
	floats   []*FloatCounter
	funcs    []funcMetric
}

// Counter is a monotonically increasing integer metric (flops, bytes
// moved, GEMM calls, messages).
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter registers and returns a counter. Registering the same name
// twice returns distinct counters whose values are reported separately;
// callers should register at package init so names stay unique.
func NewCounter(name string) *Counter {
	c := &Counter{name: name}
	registry.mu.Lock()
	registry.counters = append(registry.counters, c)
	registry.mu.Unlock()
	return c
}

// Add increments the counter by n when collection is enabled.
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float metric (modeled
// seconds). Adds are lock-free compare-and-swap on the bit pattern.
type FloatCounter struct {
	name string
	bits atomic.Uint64
}

// NewFloatCounter registers and returns a float counter.
func NewFloatCounter(name string) *FloatCounter {
	c := &FloatCounter{name: name}
	registry.mu.Lock()
	registry.floats = append(registry.floats, c)
	registry.mu.Unlock()
	return c
}

// Add increments the counter by v when collection is enabled.
func (c *FloatCounter) Add(v float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// funcMetric is an always-on metric owned by another package: the
// registry does not hold its value, it reads it at snapshot time.
type funcMetric struct {
	name, kind string
	read       func() float64
}

// CounterFunc registers an always-on integer counter that another
// package keeps in its own atomic (health fallbacks, plan-cache
// traffic, block-sparse tallies) behind a public accessor. The
// registry enumerates it by calling read at snapshot time, so the fact
// keeps exactly one counter and is exported under exactly one name. It
// is not gated on Enabled and not zeroed by ResetCounters; its owner
// resets it.
func CounterFunc(name string, read func() int64) {
	registerFunc(name, "counter", func() float64 { return float64(read()) })
}

// GaugeFunc registers an always-on derived value (a ratio of always-on
// counters) read at snapshot time; see CounterFunc.
func GaugeFunc(name string, read func() float64) { registerFunc(name, "gauge", read) }

func registerFunc(name, kind string, read func() float64) {
	registry.mu.Lock()
	registry.funcs = append(registry.funcs, funcMetric{name, kind, read})
	registry.mu.Unlock()
}

// MetricValue is one entry of a metrics snapshot.
type MetricValue struct {
	Name  string
	Value float64
	// Kind is "counter", "float", or "gauge".
	Kind string
}

// Metrics returns a snapshot of every registered counter, float counter,
// and always-on metric, sorted by name. Zero-valued gated counters are
// skipped so reports only show metrics the run actually touched;
// always-on metrics are always reported (a zero fallback count is a
// fact, not an absence).
func Metrics() []MetricValue {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	var out []MetricValue
	for _, c := range registry.counters {
		if v := c.Value(); v != 0 {
			out = append(out, MetricValue{Name: c.name, Value: float64(v), Kind: "counter"})
		}
	}
	for _, c := range registry.floats {
		if v := c.Value(); v != 0 {
			out = append(out, MetricValue{Name: c.name, Value: v, Kind: "float"})
		}
	}
	for _, f := range registry.funcs {
		out = append(out, MetricValue{Name: f.name, Value: f.read(), Kind: f.kind})
	}
	// Scratch-memory account (see mem.go): reported as gauges when the
	// run tracked any scratch at all.
	if p := PeakBytes(); p > 0 {
		out = append(out,
			MetricValue{Name: "mem.live_bytes", Value: float64(LiveBytes()), Kind: "gauge"},
			MetricValue{Name: "mem.peak_bytes", Value: float64(p), Kind: "gauge"})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MetricValueOf returns the snapshot value of the named metric, or 0 if
// absent. Convenience for report code summing a single counter.
func MetricValueOf(name string) float64 {
	for _, m := range Metrics() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// ResetCounters zeroes every gated counter and float counter and drops
// every series and histogram. Called by Enable so each enabled run
// starts from zero. Always-on metrics belong to their owners and are
// left alone.
func ResetCounters() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, c := range registry.floats {
		c.bits.Store(0)
	}
	resetSeries()
	resetPeakBytes()
}
