package ite

import (
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/obs"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/telemetry"
)

func evolveWithTelemetry(t *testing.T, steps int, stop func() bool) ([]telemetry.Event, Result) {
	t.Helper()
	telemetry.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		telemetry.Reset()
	})

	rows, cols := 2, 2
	ham := quantum.TransverseFieldIsing(rows, cols, -1, -3.5)
	state := PlusState(peps.ComputationalZeros(backend.NewDense(), rows, cols))
	res := Evolve(state, ham, Options{
		Tau:             0.05,
		Steps:           steps,
		EvolutionRank:   2,
		ContractionRank: 4,
		Strategy:        einsumsvd.Explicit{},
		MeasureEvery:    2,
		Stop:            stop,
	})
	_, replay, cancel := telemetry.Subscribe(1)
	cancel()
	return replay, res
}

// TestITEPublishesStepEvents is the acceptance check that a live run
// emits at least one SSE event per ITE step, with the energy attached
// on measured steps.
func TestITEPublishesStepEvents(t *testing.T) {
	const steps = 5
	events, _ := evolveWithTelemetry(t, steps, nil)

	stepSeen := map[int]bool{}
	measured := 0
	for _, ev := range events {
		if ev.Kind != "ite.step" {
			continue
		}
		stepSeen[ev.Step] = true
		if ev.Fields["steps_total"] != steps {
			t.Fatalf("event %+v missing steps_total=%d", ev, steps)
		}
		if _, ok := ev.Fields["energy_per_site"]; ok {
			measured++
		}
	}
	for s := 1; s <= steps; s++ {
		if !stepSeen[s] {
			t.Fatalf("no ite.step event for step %d; events: %+v", s, events)
		}
	}
	if measured == 0 {
		t.Fatal("no step event carried energy_per_site")
	}

	series, _ := obs.SnapshotSeries()
	names := map[string]obs.SeriesSnapshot{}
	for _, s := range series {
		names[s.Name] = s
	}
	if s, ok := names["ite.step"]; !ok || s.Last != steps {
		t.Fatalf("ite.step series = %+v, want last=%d", s, steps)
	}
	if s, ok := names["ite.energy_per_site"]; !ok || s.Count == 0 {
		t.Fatalf("ite.energy_per_site series missing or empty: %+v", s)
	}
	if _, ok := names["svd.trunc_error"]; !ok {
		t.Fatal("svd.trunc_error series missing (linalg publisher not wired)")
	}
}

// TestITEStopHookExitsEarly verifies the cooperative stop: the loop
// finishes the in-flight step, measures, publishes ite.stop, and
// returns early.
func TestITEStopHookExitsEarly(t *testing.T) {
	calls := 0
	stop := func() bool {
		calls++
		return calls >= 2
	}
	events, res := evolveWithTelemetry(t, 50, stop)

	var stopped bool
	lastStep := 0
	for _, ev := range events {
		if ev.Kind == "ite.stop" {
			stopped = true
			lastStep = ev.Step
		}
	}
	if !stopped {
		t.Fatalf("no ite.stop event; events: %+v", events)
	}
	if lastStep != 2 {
		t.Fatalf("stopped at step %d, want 2", lastStep)
	}
	if n := len(res.MeasuredAt); n == 0 || res.MeasuredAt[n-1] != 2 {
		t.Fatalf("stop must force a final measurement at step 2; measured at %v", res.MeasuredAt)
	}
}
