package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Labeled series and histograms: the physics observables of a running
// job (step energy, truncation error, bond dimensions, solver sweeps)
// that the live telemetry plane serves on /metrics. They sit behind the
// same Enabled gate as every other metric: while collection is off,
// Observe and ObserveHist are a single atomic load, so library code
// publishes unconditionally. While on, updates are lock-free — a
// sync.Map lookup plus atomic adds — and snapshots read the atomics
// without stopping writers.
//
// Names are bare dotted strings ("ite.energy_per_site"); the Prometheus
// renderer in internal/telemetry prefixes "koala_" and rewrites
// non-alphanumerics.

// Label is one key/value dimension on a series.
type Label struct {
	Key, Value string
}

// Series is a labeled timeseries cell: last value, observation count,
// and running sum, all updated with atomics so concurrent recorders
// never contend on a lock.
type Series struct {
	name     string
	labels   []Label
	count    atomic.Int64
	sumBits  atomic.Uint64
	lastBits atomic.Uint64
	lastSet  atomic.Bool
}

// Observe records one value: the series' last value becomes v, and v is
// folded into the count/sum aggregates.
func (s *Series) Observe(v float64) {
	s.lastBits.Store(math.Float64bits(v))
	s.lastSet.Store(true)
	s.count.Add(1)
	atomicAddFloat(&s.sumBits, v)
}

// Last returns the most recent value and whether one was ever observed.
func (s *Series) Last() (float64, bool) {
	return math.Float64frombits(s.lastBits.Load()), s.lastSet.Load()
}

// Count returns how many observations the series has received.
func (s *Series) Count() int64 { return s.count.Load() }

// Sum returns the running sum of observations.
func (s *Series) Sum() float64 { return math.Float64frombits(s.sumBits.Load()) }

func atomicAddFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Hist is a fixed-bucket histogram (bond dimensions, truncation errors,
// solver sweeps). Buckets hold per-bucket counts; the Prometheus
// renderer cumulates them into the le convention at scrape time.
type Hist struct {
	name    string
	labels  []Label
	bounds  []float64 // upper bounds, ascending; implicit +Inf last
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records v into the first bucket whose upper bound contains it.
func (h *Hist) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sumBits, v)
}

// Pow2Bounds buckets small positive integers (bond dimensions, sweep
// counts) at powers of two.
var Pow2Bounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// LogBounds buckets relative errors (truncation discarded weight) at
// decades from 1e-16 to 1.
var LogBounds = []float64{1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// seriesReg holds every live series and histogram, keyed by rendered
// name+labels. sync.Map keeps lookups lock-free on the hot path.
var seriesReg struct {
	series sync.Map // string -> *Series
	hists  sync.Map // string -> *Hist
}

// seriesKey renders a registry key: name plus labels in given order.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	n := len(name) + 2
	for _, l := range labels {
		n += len(l.Key) + len(l.Value) + 2
	}
	b := make([]byte, 0, n)
	b = append(b, name...)
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = append(b, l.Value...)
	}
	b = append(b, '}')
	return string(b)
}

// GetSeries returns (creating on first use) the series for name+labels.
func GetSeries(name string, labels ...Label) *Series {
	key := seriesKey(name, labels)
	if v, ok := seriesReg.series.Load(key); ok {
		return v.(*Series)
	}
	s := &Series{name: name, labels: append([]Label(nil), labels...)}
	v, _ := seriesReg.series.LoadOrStore(key, s)
	return v.(*Series)
}

// GetHist returns (creating on first use) the histogram for name+labels
// with the given bounds. Bounds are fixed at creation; later calls with
// different bounds reuse the original.
func GetHist(name string, bounds []float64, labels ...Label) *Hist {
	key := seriesKey(name, labels)
	if v, ok := seriesReg.hists.Load(key); ok {
		return v.(*Hist)
	}
	h := &Hist{
		name:    name,
		labels:  append([]Label(nil), labels...),
		bounds:  bounds,
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	v, _ := seriesReg.hists.LoadOrStore(key, h)
	return v.(*Hist)
}

// Observe records v into the named series while collection is enabled;
// a single atomic load otherwise.
func Observe(name string, v float64, labels ...Label) {
	if !enabled.Load() {
		return
	}
	GetSeries(name, labels...).Observe(v)
}

// ObserveHist records v into the named histogram while collection is
// enabled.
func ObserveHist(name string, bounds []float64, v float64, labels ...Label) {
	if !enabled.Load() {
		return
	}
	GetHist(name, bounds, labels...).Observe(v)
}

// SeriesSnapshot is one series' snapshot-time state.
type SeriesSnapshot struct {
	Name   string
	Labels []Label
	Last   float64
	Sum    float64
	Count  int64
}

// HistSnapshot is one histogram's snapshot-time state; Buckets are
// per-bucket (non-cumulative) counts aligned with Bounds plus a final
// +Inf bucket.
type HistSnapshot struct {
	Name    string
	Labels  []Label
	Bounds  []float64
	Buckets []int64
	Sum     float64
	Count   int64
}

// SnapshotSeries captures every series and histogram, sorted by
// name+labels, without stopping writers (values are atomically read; a
// snapshot racing an Observe sees either side of it).
func SnapshotSeries() ([]SeriesSnapshot, []HistSnapshot) {
	var ss []SeriesSnapshot
	seriesReg.series.Range(func(k, v interface{}) bool {
		s := v.(*Series)
		last, ok := s.Last()
		if !ok {
			return true
		}
		ss = append(ss, SeriesSnapshot{
			Name: s.name, Labels: s.labels,
			Last: last, Sum: s.Sum(), Count: s.Count(),
		})
		return true
	})
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].Name != ss[j].Name {
			return ss[i].Name < ss[j].Name
		}
		return seriesKey("", ss[i].Labels) < seriesKey("", ss[j].Labels)
	})
	var hs []HistSnapshot
	seriesReg.hists.Range(func(k, v interface{}) bool {
		h := v.(*Hist)
		buckets := make([]int64, len(h.buckets))
		for i := range h.buckets {
			buckets[i] = h.buckets[i].Load()
		}
		hs = append(hs, HistSnapshot{
			Name: h.name, Labels: h.labels, Bounds: h.bounds,
			Buckets: buckets, Sum: math.Float64frombits(h.sumBits.Load()), Count: h.count.Load(),
		})
		return true
	})
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Name != hs[j].Name {
			return hs[i].Name < hs[j].Name
		}
		return seriesKey("", hs[i].Labels) < seriesKey("", hs[j].Labels)
	})
	return ss, hs
}

// resetSeries drops every series and histogram; part of ResetCounters.
func resetSeries() {
	seriesReg.series.Range(func(k, _ interface{}) bool {
		seriesReg.series.Delete(k)
		return true
	})
	seriesReg.hists.Range(func(k, _ interface{}) bool {
		seriesReg.hists.Delete(k)
		return true
	})
}
