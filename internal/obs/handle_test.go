package obs

import (
	"sync"
	"testing"
)

// collectSink records every completed span event for inspection.
type collectSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *collectSink) SpanEnd(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectSink) Flush() error { return nil }

func (c *collectSink) byName(name string) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, e := range c.events {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// A Start on a goroutine with no open span must attach to the trace
// root, not to whatever span another goroutine happens to have open.
func TestForeignGoroutineStartAttachesToRoot(t *testing.T) {
	cleanup()
	sink := &collectSink{}
	Enable(sink)
	defer cleanup()

	outer := Start("outer")
	done := make(chan struct{})
	go func() {
		defer close(done)
		inner := Start("foreign")
		inner.End()
	}()
	<-done
	outer.End()

	foreign := sink.byName("foreign")
	if len(foreign) != 1 {
		t.Fatalf("want 1 foreign span, got %d", len(foreign))
	}
	if foreign[0].Parent != 0 {
		t.Fatalf("foreign-goroutine span parented under id %d; want trace root (0)", foreign[0].Parent)
	}
	if foreign[0].Depth != 0 {
		t.Fatalf("foreign-goroutine span depth = %d; want 0", foreign[0].Depth)
	}
}

// StartChild parents explicitly across goroutines, and Adopt makes
// Start calls inside the task body nest under the task span.
func TestStartChildAdoptNesting(t *testing.T) {
	cleanup()
	sink := &collectSink{}
	Enable(sink)
	defer cleanup()

	outer := Start("outer")
	done := make(chan struct{})
	go func() {
		defer close(done)
		task := outer.StartChild("task")
		task.Adopt()
		leaf := Start("leaf") // must nest under the adopted task span
		leaf.End()
		task.End()
	}()
	<-done
	outer.End()

	outerEv := sink.byName("outer")
	taskEv := sink.byName("task")
	leafEv := sink.byName("leaf")
	if len(outerEv) != 1 || len(taskEv) != 1 || len(leafEv) != 1 {
		t.Fatalf("missing spans: outer=%d task=%d leaf=%d", len(outerEv), len(taskEv), len(leafEv))
	}
	if taskEv[0].Parent != outerEv[0].ID {
		t.Fatalf("task parent = %d, want outer id %d", taskEv[0].Parent, outerEv[0].ID)
	}
	if leafEv[0].Parent != taskEv[0].ID {
		t.Fatalf("leaf parent = %d, want task id %d", leafEv[0].Parent, taskEv[0].ID)
	}
	if taskEv[0].Depth != 1 || leafEv[0].Depth != 2 {
		t.Fatalf("depths task=%d leaf=%d, want 1 and 2", taskEv[0].Depth, leafEv[0].Depth)
	}
}

// Current returns the innermost open span of the calling goroutine only.
func TestCurrentIsPerGoroutine(t *testing.T) {
	cleanup()
	Enable()
	defer cleanup()

	outer := Start("outer")
	if Current() != outer {
		t.Fatal("Current should see the goroutine's own open span")
	}
	var onWorker *Span
	done := make(chan struct{})
	go func() {
		defer close(done)
		onWorker = Current()
	}()
	<-done
	if onWorker != nil {
		t.Fatalf("fresh goroutine sees span %v; want nil", onWorker)
	}
	outer.End()
	if Current() != nil {
		t.Fatal("Current should be nil after the last span ends")
	}
}

// SetTrack propagates to children, including StartChild children.
func TestTrackInheritance(t *testing.T) {
	cleanup()
	sink := &collectSink{}
	Enable(sink)
	defer cleanup()

	parent := Start("parent").SetTrack(3)
	child := parent.StartChild("child")
	child.End()
	parent.End()

	if ev := sink.byName("child"); len(ev) != 1 || ev[0].Track != 3 {
		t.Fatalf("child track = %+v, want 3", ev)
	}
}

// The scratch-memory gauge tracks live bytes and a resettable peak.
func TestTrackBytesPeak(t *testing.T) {
	cleanup()
	baseLive := LiveBytes()

	TrackBytes(100)
	TrackBytes(200)
	if got := LiveBytes() - baseLive; got != 300 {
		t.Fatalf("live delta = %d, want 300", got)
	}
	if PeakBytes() < baseLive+300 {
		t.Fatalf("peak %d below live high water %d", PeakBytes(), baseLive+300)
	}
	TrackBytes(-250)
	peakBefore := PeakBytes()
	if got := LiveBytes() - baseLive; got != 50 {
		t.Fatalf("live delta after release = %d, want 50", got)
	}
	if PeakBytes() != peakBefore {
		t.Fatal("peak must not fall when bytes are released")
	}
	// ResetCounters rebases the peak to the current live level.
	ResetCounters()
	if PeakBytes() != LiveBytes() {
		t.Fatalf("after reset peak %d != live %d", PeakBytes(), LiveBytes())
	}
	TrackBytes(-50) // drain this test's remaining bytes
	cleanup()
}
