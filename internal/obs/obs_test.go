package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cleanup returns collection to the disabled default state.
func cleanup() {
	Disable()
	ResetCounters()
}

func TestDisabledFastPath(t *testing.T) {
	cleanup()
	if Enabled() {
		t.Fatal("obs should start disabled")
	}
	sp := Start("anything")
	if sp != nil {
		t.Fatal("Start while disabled must return nil")
	}
	// All nil-receiver methods must be no-ops.
	sp.SetStr("k", "v").SetFloat("f", 1).SetInt("i", 2)
	sp.End()
	c := NewCounter("test.disabled.counter")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("disabled counter advanced to %d", c.Value())
	}
}

func TestSpanNestingAndSummary(t *testing.T) {
	cleanup()
	Enable()
	defer cleanup()

	outer := Start("outer")
	inner := Start("inner")
	time.Sleep(time.Millisecond)
	inner.SetFloat("modeled_s", 0.5)
	inner.End()
	inner2 := Start("inner")
	inner2.SetFloat("modeled_s", 0.25)
	inner2.End()
	outer.End()

	stats := Summary()
	byName := map[string]PhaseStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	in, ok := byName["inner"]
	if !ok || in.Count != 2 {
		t.Fatalf("inner summary wrong: %+v", byName)
	}
	if got := in.Attrs["modeled_s"]; got != 0.75 {
		t.Fatalf("modeled_s sum = %v want 0.75", got)
	}
	out := byName["outer"]
	if out.Count != 1 {
		t.Fatalf("outer count = %d", out.Count)
	}
	if out.Self > out.Total {
		t.Fatalf("self %v exceeds total %v", out.Self, out.Total)
	}
	// Outer's self time excludes the sleeping child.
	if out.Self >= out.Total-500*time.Microsecond {
		t.Fatalf("outer self %v should exclude child time (total %v)", out.Self, out.Total)
	}
}

func TestCountersAndGauges(t *testing.T) {
	cleanup()
	c := NewCounter("test.counter")
	f := NewFloatCounter("test.float")
	var owned atomic.Int64
	CounterFunc("test.owned", owned.Load)
	GaugeFunc("test.ratio", func() float64 { return 0.125 })
	Enable()
	defer cleanup()
	c.Add(3)
	c.Add(4)
	f.Add(1.5)
	f.Add(2.5)
	if c.Value() != 7 {
		t.Fatalf("counter = %d want 7", c.Value())
	}
	if f.Value() != 4 {
		t.Fatalf("float counter = %v want 4", f.Value())
	}
	if got := MetricValueOf("test.counter"); got != 7 {
		t.Fatalf("MetricValueOf = %v want 7", got)
	}
	// Always-on metrics are read from their owner at snapshot time and
	// reported even at zero.
	kinds := map[string]string{}
	for _, m := range Metrics() {
		kinds[m.Name] = m.Kind
	}
	if kinds["test.owned"] != "counter" || kinds["test.ratio"] != "gauge" {
		t.Fatalf("always-on metrics missing or mis-kinded: %v", kinds)
	}
	owned.Add(5)
	if got := MetricValueOf("test.owned"); got != 5 {
		t.Fatalf("owned counter = %v want 5", got)
	}
	if got := MetricValueOf("test.ratio"); got != 0.125 {
		t.Fatalf("gauge = %v want 0.125", got)
	}
	// Enable resets the gated counters; the owner's count is its own.
	Enable()
	if c.Value() != 0 || f.Value() != 0 {
		t.Fatal("Enable should reset counters")
	}
	if got := MetricValueOf("test.owned"); got != 5 {
		t.Fatalf("Enable must not reset an owned counter: %v", got)
	}
}

func TestJSONLSink(t *testing.T) {
	cleanup()
	var buf bytes.Buffer
	c := NewCounter("test.jsonl.counter")
	Enable(NewJSONLSink(&buf))
	defer cleanup()
	c.Add(9)
	sp := Start("phase.a")
	sp.SetStr("spec", "ab,bc->ac").SetInt("bytes", 128)
	sp.End()
	if err := Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 JSONL lines (span, metrics), got %d: %q", len(lines), buf.String())
	}
	var span struct {
		Type  string                 `json:"type"`
		Name  string                 `json:"name"`
		Attrs map[string]interface{} `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &span); err != nil {
		t.Fatalf("span line not JSON: %v", err)
	}
	if span.Type != "span" || span.Name != "phase.a" || span.Attrs["spec"] != "ab,bc->ac" {
		t.Fatalf("bad span record: %+v", span)
	}
	var metrics struct {
		Type    string             `json:"type"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &metrics); err != nil {
		t.Fatalf("metrics line not JSON: %v", err)
	}
	if metrics.Metrics["test.jsonl.counter"] != 9 {
		t.Fatalf("metrics record missing counter: %+v", metrics)
	}
}

func TestChromeTraceSinkNesting(t *testing.T) {
	cleanup()
	var buf bytes.Buffer
	Enable(NewChromeTraceSink(&buf))
	defer cleanup()

	sweep := Start("bmps.sweep")
	contraction := Start("einsum")
	gemm := Start("einsum.gemm")
	time.Sleep(200 * time.Microsecond)
	gemm.End()
	contraction.End()
	sweep.End()
	if err := Flush(); err != nil {
		t.Fatal(err)
	}

	var evs []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	byName := map[string]int{}
	for i, e := range evs {
		byName[e.Name] = i
	}
	for _, name := range []string{"bmps.sweep", "einsum", "einsum.gemm"} {
		i, ok := byName[name]
		if !ok {
			t.Fatalf("trace missing span %q", name)
		}
		if evs[i].Ph != "X" {
			t.Fatalf("span %q has phase %q, want X", name, evs[i].Ph)
		}
	}
	s, c, g := evs[byName["bmps.sweep"]], evs[byName["einsum"]], evs[byName["einsum.gemm"]]
	if !(s.TS <= c.TS && c.TS+c.Dur <= s.TS+s.Dur+1) {
		t.Fatalf("einsum not nested in sweep: %+v %+v", s, c)
	}
	if !(c.TS <= g.TS && g.TS+g.Dur <= c.TS+c.Dur+1) {
		t.Fatalf("gemm not nested in einsum: %+v %+v", c, g)
	}
}

// TestConcurrentCounters exercises the lock-free paths under the race
// detector: many goroutines hammering counters, floats, and series while
// spans open and close on the main goroutine.
func TestConcurrentCounters(t *testing.T) {
	cleanup()
	c := NewCounter("test.race.counter")
	f := NewFloatCounter("test.race.float")
	Enable()
	defer cleanup()

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Add(1)
				f.Add(0.5)
				Observe("test.race.series", float64(w))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		sp := Start("race.phase")
		sp.SetInt("i", int64(i))
		sp.End()
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Fatalf("counter = %d want %d", c.Value(), workers*iters)
	}
	if f.Value() != workers*iters*0.5 {
		t.Fatalf("float = %v want %v", f.Value(), workers*iters*0.5)
	}
	if n := GetSeries("test.race.series").Count(); n != workers*iters {
		t.Fatalf("series count = %d want %d", n, workers*iters)
	}
}

// TestConcurrentSpans verifies span Start/End is safe (if not
// hierarchy-meaningful) from multiple goroutines.
func TestConcurrentSpans(t *testing.T) {
	cleanup()
	Enable(NewJSONLSink(&bytes.Buffer{}))
	defer cleanup()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sp := Start("concurrent")
				sp.End()
			}
		}()
	}
	wg.Wait()
	stats := Summary()
	var total int64
	for _, s := range stats {
		if s.Name == "concurrent" {
			total = s.Count
		}
	}
	if total != 2000 {
		t.Fatalf("span count = %d want 2000", total)
	}
}

func TestWriteSummaryTable(t *testing.T) {
	cleanup()
	Enable()
	defer cleanup()
	sp := Start("phase.x")
	sp.SetFloat("modeled_s", 1.5)
	sp.End()
	var buf bytes.Buffer
	WriteSummary(&buf)
	out := buf.String()
	if !strings.Contains(out, "phase.x") || !strings.Contains(out, "modeled_s") {
		t.Fatalf("summary table missing content:\n%s", out)
	}
}

// BenchmarkInactiveObserve measures the disabled series path — the cost
// every solver/update call pays when collection is off. It must stay a
// single atomic load with zero allocations.
func BenchmarkInactiveObserve(b *testing.B) {
	cleanup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Observe("svd.trunc_error", 1e-9)
	}
}

func BenchmarkActiveObserve(b *testing.B) {
	cleanup()
	Enable()
	defer cleanup()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Observe("svd.trunc_error", 1e-9)
	}
}

// TestSummarySkipsIdentifierAttrs: identifier attributes (worker lane,
// task sequence number, step, lattice extent) are kept per span by the
// sinks but never summed into the phase summary, where a total of ids
// is meaningless; measures still are.
func TestSummarySkipsIdentifierAttrs(t *testing.T) {
	cleanup()
	var buf bytes.Buffer
	Enable(NewJSONLSink(&buf))
	defer cleanup()
	for i := 0; i < 3; i++ {
		sp := Start("task.body")
		for _, k := range []string{"worker", "task", "step", "rows", "cols"} {
			sp.SetInt(k, int64(100+i))
		}
		sp.SetInt("flops", 10).SetFloat("modeled_s", 0.5)
		sp.End()
	}
	var row PhaseStat
	for _, s := range Summary() {
		if s.Name == "task.body" {
			row = s
		}
	}
	if len(row.Attrs) != 2 || row.Attrs["flops"] != 30 || row.Attrs["modeled_s"] != 1.5 {
		t.Fatalf("summary attrs = %v, want only flops=30 modeled_s=1.5", row.Attrs)
	}
	var out strings.Builder
	WriteSummary(&out)
	if strings.Contains(out.String(), "worker") || strings.Contains(out.String(), "task ") {
		t.Fatalf("summary table shows identifier columns:\n%s", out.String())
	}
	if err := Flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"worker":`); n != 3 {
		t.Fatalf("JSONL log kept %d worker attributes, want one per span (3)", n)
	}
}
