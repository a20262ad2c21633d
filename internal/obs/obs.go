// Package obs is the unified tracing and metrics layer of gokoala: a
// lightweight, allocation-conscious substrate every layer (backend,
// einsum, dist, peps, mps, bench) reports into, so a run can be broken
// down into the paper's phases — contraction, orthogonalization, SVD,
// communication — end to end (the accounting behind paper Figures 7-10
// and Table II).
//
// The package is disabled by default and its hot-path entry points are
// near-free when disabled: Start performs one atomic load and returns a
// nil *Span whose methods are all nil-receiver no-ops, and counters skip
// their atomic add. Enabling installs zero or more sinks:
//
//   - JSONLSink: one JSON object per completed span, plus a final
//     counters record; machine-readable event log (the input format of
//     cmd/koala-obs).
//   - ChromeTraceSink: Chrome trace_event JSON loadable in
//     chrome://tracing or https://ui.perfetto.dev.
//   - the built-in phase summary (always collected while enabled),
//     printed with WriteSummary.
//
// Span hierarchy is explicit: every span records its parent handle, and
// parents are resolved per goroutine. Start nests under the innermost
// span open on the *calling* goroutine; code that fans work out to other
// goroutines passes a handle and calls StartChild, then binds that span
// to the worker goroutine with Adopt so Start calls inside the task body
// nest under it (this is what pool.Group and the kernel dispatch loops
// do). A goroutine with no open span and no adopted span
// attaches to the trace root — never to another goroutine's stack — so
// concurrent spans can no longer land under a racing, surprising parent.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the global fast-path switch; all public entry points load
// it before doing any work.
var enabled atomic.Bool

// Enabled reports whether tracing/metrics collection is on.
func Enabled() bool { return enabled.Load() }

// nextSpanID hands out span ids, unique within a process run. Ids exist
// so offline analyzers (cmd/koala-obs) can rebuild the span tree from a
// JSONL log; they are assigned in start order and are therefore not
// deterministic across worker counts — analyzers must not diff them.
var nextSpanID atomic.Int64

// tracer is the package-global collector state behind the mutex.
type goStackMap map[uint64][]*Span

var tracer struct {
	mu sync.Mutex
	// goStacks holds the per-goroutine stacks of open spans: Start
	// pushes onto the calling goroutine's stack, Adopt binds a span to a
	// worker goroutine's stack. Entries are removed when a stack drains
	// so the map does not grow with goroutine churn.
	goStacks goStackMap
	sinks    []Sink
	summary  map[string]*phaseAgg
	origin   time.Time // trace epoch for relative timestamps
}

// Enable turns collection on, installing the given sinks (zero sinks is
// valid: counters and the phase summary are still collected). It resets
// all counters, the summary, and the span stacks, so a run's totals
// start from zero.
func Enable(sinks ...Sink) {
	tracer.mu.Lock()
	tracer.sinks = append([]Sink(nil), sinks...)
	tracer.goStacks = make(goStackMap)
	tracer.summary = make(map[string]*phaseAgg)
	tracer.origin = time.Now()
	tracer.mu.Unlock()
	ResetCounters()
	enabled.Store(true)
}

// Disable turns collection off and flushes and detaches the sinks,
// returning the first flush error. Spans still open are dropped.
func Disable() error {
	enabled.Store(false)
	tracer.mu.Lock()
	sinks := tracer.sinks
	tracer.sinks = nil
	tracer.goStacks = nil
	tracer.mu.Unlock()
	var first error
	for _, s := range sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Attr is one key/value annotation on a span. Values are kept as the
// small set of types the sinks know how to serialize.
type Attr struct {
	Key string
	Str string
	Num float64
	Int int64
	// Kind: 0 string, 1 float, 2 int.
	Kind uint8
}

// Span is one timed region. A nil *Span (what Start returns while
// disabled) is valid: every method is a no-op.
//
// A span is owned by the goroutine that starts it until End; the
// attribute setters are not synchronized. The one cross-goroutine field,
// childDur, is only touched under the tracer mutex in End.
type Span struct {
	name     string
	start    time.Time
	parent   *Span
	depth    int
	id       int64
	track    int
	attrs    []Attr
	childDur time.Duration
	// onStack/gid record which goroutine stack (if any) the span sits
	// on, so End can pop it. Spans created with StartChild are off-stack
	// until Adopt binds them to their executing goroutine.
	onStack bool
	gid     uint64
}

// newSpan allocates a span under parent (nil = trace root).
func newSpan(name string, parent *Span) *Span {
	s := &Span{name: name, start: time.Now(), parent: parent, id: nextSpanID.Add(1)}
	if parent != nil {
		s.depth = parent.depth + 1
		s.track = parent.track
	}
	return s
}

// Start opens a span nested under the innermost span open on the calling
// goroutine. On a goroutine with no open or adopted span the new span
// attaches to the trace root. While disabled it returns nil without
// allocating.
func Start(name string) *Span {
	if !enabled.Load() {
		return nil
	}
	gid := curGoID()
	tracer.mu.Lock()
	var parent *Span
	if st := tracer.goStacks[gid]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	s := newSpan(name, parent)
	s.onStack, s.gid = true, gid
	if tracer.goStacks != nil {
		tracer.goStacks[gid] = append(tracer.goStacks[gid], s)
	}
	tracer.mu.Unlock()
	return s
}

// StartChild opens a span explicitly parented under s, from any
// goroutine — the handle-passing form task schedulers use to attribute
// work running on worker goroutines to the group that spawned it. The
// child is not bound to any goroutine stack; call Adopt to make Start
// calls inside the task body nest under it. Returns nil on a nil
// receiver or while disabled.
func (s *Span) StartChild(name string) *Span {
	if s == nil || !enabled.Load() {
		return nil
	}
	return newSpan(name, s)
}

// Adopt binds the span to the calling goroutine as its innermost open
// span, so Start calls made by this goroutine (and kernels it invokes)
// nest under it. End unbinds. Typically called by a task runner right
// after StartChild, on the goroutine that will execute the task body.
func (s *Span) Adopt() {
	if s == nil || !enabled.Load() {
		return
	}
	gid := curGoID()
	tracer.mu.Lock()
	if tracer.goStacks != nil {
		s.onStack, s.gid = true, gid
		tracer.goStacks[gid] = append(tracer.goStacks[gid], s)
	}
	tracer.mu.Unlock()
}

// Current returns the innermost span open on the calling goroutine, or
// nil if there is none (or collection is disabled). Kernel dispatchers
// use it to pick up the span handle to parent worker-side chunks under.
func Current() *Span {
	if !enabled.Load() {
		return nil
	}
	gid := curGoID()
	tracer.mu.Lock()
	defer tracer.mu.Unlock()
	if st := tracer.goStacks[gid]; len(st) > 0 {
		return st[len(st)-1]
	}
	return nil
}

// SetTrack assigns the span (and, by inheritance, its future children)
// to a display track: 0 is the orchestrator, positive values are worker
// or rank lanes. Tracks map to Chrome trace tids.
func (s *Span) SetTrack(t int) *Span {
	if s == nil {
		return nil
	}
	s.track = t
	return s
}

// SetStr annotates the span with a string attribute.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Str: v, Kind: 0})
	return s
}

// SetFloat annotates the span with a numeric attribute. Numeric
// attributes other than identifiers (see IsIdentifierAttr) are summed
// per span name in the phase summary, which is how modeled seconds from
// the dist machine model appear alongside measured seconds.
func (s *Span) SetFloat(key string, v float64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Num: v, Kind: 1})
	return s
}

// SetInt annotates the span with an integer attribute. Like float
// attributes, non-identifier integer attributes are summed per span
// name in the phase summary.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Int: v, Kind: 2})
	return s
}

// Event is a completed span as delivered to sinks. Offset is relative to
// the Enable call so traces start at t=0. ID/Parent let offline readers
// rebuild the tree (Parent 0 = trace root); Track is the display lane.
type Event struct {
	Name   string
	Offset time.Duration
	Dur    time.Duration
	Depth  int
	ID     int64
	Parent int64
	Track  int
	Attrs  []Attr
}

// End closes the span, attributing its duration to the phase summary and
// emitting it to the sinks. Safe on nil receivers and after Disable.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	if !enabled.Load() {
		return
	}
	tracer.mu.Lock()
	if s.onStack {
		// Pop s from its goroutine's stack; tolerate out-of-order ends
		// by searching from the top (children ended late are simply
		// removed where found).
		st := tracer.goStacks[s.gid]
		for i := len(st) - 1; i >= 0; i-- {
			if st[i] == s {
				st = append(st[:i], st[i+1:]...)
				break
			}
		}
		if len(st) == 0 {
			delete(tracer.goStacks, s.gid)
		} else {
			tracer.goStacks[s.gid] = st
		}
		s.onStack = false
	}
	if s.parent != nil {
		s.parent.childDur += dur
	}
	agg := tracer.summary[s.name]
	if agg == nil {
		agg = &phaseAgg{attrs: map[string]float64{}}
		tracer.summary[s.name] = agg
	}
	agg.count++
	agg.total += dur
	self := dur - s.childDur
	if self < 0 {
		self = 0
	}
	agg.self += self
	for _, a := range s.attrs {
		if IsIdentifierAttr(a.Key) {
			continue
		}
		switch a.Kind {
		case 1:
			agg.attrs[a.Key] += a.Num
		case 2:
			agg.attrs[a.Key] += float64(a.Int)
		}
	}
	var parentID int64
	if s.parent != nil {
		parentID = s.parent.id
	}
	ev := Event{
		Name:   s.name,
		Offset: s.start.Sub(tracer.origin),
		Dur:    dur,
		Depth:  s.depth,
		ID:     s.id,
		Parent: parentID,
		Track:  s.track,
		Attrs:  s.attrs,
	}
	sinks := tracer.sinks
	tracer.mu.Unlock()
	for _, sk := range sinks {
		sk.SpanEnd(ev)
	}
}

// Flush flushes every installed sink, returning the first error.
func Flush() error {
	tracer.mu.Lock()
	sinks := append([]Sink(nil), tracer.sinks...)
	tracer.mu.Unlock()
	var first error
	for _, s := range sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// IsIdentifierAttr reports whether a numeric span attribute identifies
// the span rather than measures it: worker lane, task sequence number,
// step, and lattice extent. A sum of them means nothing, so phase
// summaries (live here, and rebuilt from a log by obsfile) skip them;
// the sinks still record them per span.
func IsIdentifierAttr(key string) bool {
	switch key {
	case "worker", "task", "step", "rows", "cols":
		return true
	}
	return false
}

// phaseAgg accumulates the per-span-name summary.
type phaseAgg struct {
	count int64
	total time.Duration
	self  time.Duration
	attrs map[string]float64
}

// PhaseStat is one row of the phase summary.
type PhaseStat struct {
	Name  string
	Count int64
	// Total is the cumulative wall time of all spans with this name;
	// Self excludes time spent in child spans, so Self sums to the
	// traced wall time without double counting.
	Total time.Duration
	Self  time.Duration
	// Attrs holds the per-name sums of numeric span attributes (e.g.
	// modeled_s, comm_bytes).
	Attrs map[string]float64
}

// Summary returns the per-phase aggregation collected since Enable,
// sorted by descending total time.
func Summary() []PhaseStat {
	tracer.mu.Lock()
	defer tracer.mu.Unlock()
	out := make([]PhaseStat, 0, len(tracer.summary))
	for name, a := range tracer.summary {
		attrs := make(map[string]float64, len(a.attrs))
		for k, v := range a.attrs {
			if !math.IsNaN(v) {
				attrs[k] = v
			}
		}
		out = append(out, PhaseStat{Name: name, Count: a.count, Total: a.total, Self: a.self, Attrs: attrs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ResetSummary clears the per-phase aggregation (counters are separate;
// see ResetCounters). Useful between experiments sharing one Enable.
func ResetSummary() {
	tracer.mu.Lock()
	if tracer.summary != nil {
		tracer.summary = make(map[string]*phaseAgg)
	}
	tracer.mu.Unlock()
}
