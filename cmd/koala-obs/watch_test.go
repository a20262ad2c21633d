package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/telemetry"
	"gokoala/internal/tensor"
)

// watchResult is one snapshot taken through both entry points.
type watchResult struct {
	snap    *watchSnapshot // fetchSnapshot's result
	err     error          // fetchSnapshot's error
	code    int            // watch -once -json exit code
	printed *watchSnapshot // what watch printed; nil when nothing
}

// watchOnce serves handler on httptest and takes one snapshot with
// fetchSnapshot and one with the watch -once -json command.
func watchOnce(t *testing.T, handler http.Handler) watchResult {
	t.Helper()
	srv := httptest.NewServer(handler)
	defer srv.Close()
	var r watchResult
	r.snap, r.err = fetchSnapshot(srv.Client(), srv.URL)

	var stdout, stderr bytes.Buffer
	r.code = runWatch([]string{"-once", "-json", srv.Listener.Addr().String()}, &stdout, &stderr)
	if stdout.Len() > 0 {
		r.printed = new(watchSnapshot)
		if err := json.Unmarshal(stdout.Bytes(), r.printed); err != nil {
			t.Fatalf("watch -once -json printed undecodable output: %v\n%s", err, stdout.String())
		}
	}
	return r
}

func resetTelemetry(t *testing.T) {
	t.Helper()
	reset := func() {
		telemetry.Reset()
		obs.Disable()
		obs.ResetCounters()
		health.ResetCounters()
		health.SetPolicy(health.PolicyOff)
	}
	reset()
	t.Cleanup(reset)
}

func TestWatchHealthySnapshot(t *testing.T) {
	resetTelemetry(t)
	obs.Enable()
	obs.Observe("ite.energy_per_site", -1.25)

	r := watchOnce(t, telemetry.Handler())
	if r.err != nil {
		t.Fatalf("fetchSnapshot: %v", r.err)
	}
	if r.code != 0 || r.printed == nil {
		t.Fatalf("watch -once -json exit %d, printed %v; want exit 0 and one snapshot", r.code, r.printed)
	}
	for _, s := range []*watchSnapshot{r.snap, r.printed} {
		if s.Health.Status != "ok" {
			t.Errorf("health status %q, want ok", s.Health.Status)
		}
		if v, ok := s.Metrics["koala_ite_energy_per_site"]; !ok || v != -1.25 {
			t.Errorf("koala_ite_energy_per_site = %v (present %v), want -1.25", v, ok)
		}
	}
}

// TestWatchDegradedHealthz: /healthz answers 503 after a counted NaN,
// and that is still a valid (degraded) snapshot, not an error.
func TestWatchDegradedHealthz(t *testing.T) {
	resetTelemetry(t)
	health.SetPolicy(health.PolicyCount)
	x := tensor.New(2, 2)
	health.NewInjector(1).FlipNaN(x)
	health.CheckTensor("test", x)

	r := watchOnce(t, telemetry.Handler())
	if r.err != nil {
		t.Fatalf("fetchSnapshot on a degraded run: %v", r.err)
	}
	if r.code != 0 || r.printed == nil {
		t.Fatalf("watch -once -json exit %d, printed %v; want exit 0 and one snapshot", r.code, r.printed)
	}
	for _, s := range []*watchSnapshot{r.snap, r.printed} {
		if s.Health.Status != "degraded" || s.Health.Counters["nan_detected"] != 1 {
			t.Errorf("health = %+v, want degraded with nan_detected 1", s.Health)
		}
	}
}

// TestWatchMalformedMetrics: an exposition the strict parser rejects is
// an error, and watch -once exits nonzero without printing a snapshot.
func TestWatchMalformedMetrics(t *testing.T) {
	resetTelemetry(t)
	mux := http.NewServeMux()
	mux.Handle("/healthz", telemetry.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("# TYPE koala_x gauge\nkoala_x notanumber\n"))
	})

	r := watchOnce(t, mux)
	if r.err == nil {
		t.Fatal("fetchSnapshot accepted a malformed /metrics body")
	}
	if r.code == 0 || r.printed != nil {
		t.Fatalf("watch -once -json exit %d, printed %v; want nonzero exit and no snapshot", r.code, r.printed)
	}
}
