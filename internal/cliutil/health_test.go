package cliutil

import (
	"bytes"
	"strings"
	"testing"

	"gokoala/internal/health"
	"gokoala/internal/telemetry"
)

// TestSymFallbackReported: a counted block-sparse fallback appears in the
// /healthz counters and in the CLIs' numerical-health block, like every
// other health counter.
func TestSymFallbackReported(t *testing.T) {
	health.ResetCounters()
	defer health.ResetCounters()
	health.CountSymFallback()

	if got := telemetry.CurrentHealth().Counters["sym_fallbacks"]; got != 1 {
		t.Errorf("/healthz counters sym_fallbacks = %d, want 1", got)
	}
	var buf bytes.Buffer
	WriteHealthCounters(&buf)
	if !strings.Contains(buf.String(), "health.sym_fallbacks: 1\n") {
		t.Errorf("health block lacks sym_fallbacks:\n%s", buf.String())
	}
}
