package main

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/einsum"
	"gokoala/internal/obs"
	"gokoala/internal/obsfile"
	"gokoala/internal/tensor"
)

// section returns the table rows (header and rule stripped) of the
// report section with the given title.
func section(t *testing.T, report, title string) [][]string {
	t.Helper()
	_, rest, ok := strings.Cut(report, "-- "+title+" --\n")
	if !ok {
		t.Fatalf("report has no %q section:\n%s", title, report)
	}
	if end := strings.Index(rest, "\n\n"); end >= 0 {
		rest = rest[:end]
	}
	lines := strings.Split(strings.TrimRight(rest, "\n"), "\n")
	var rows [][]string
	for _, l := range lines[2:] {
		rows = append(rows, strings.Fields(l))
	}
	return rows
}

// TestReportRanksSpansByFlops runs report on a small fixture trace: the
// flops ranking must list only spans carrying a positive flops attribute
// (einsum spans, and truncated SVDs charged by shape), in descending
// order, cut at -top.
func TestReportRanksSpansByFlops(t *testing.T) {
	tr, err := obsfile.ReadFile(filepath.Join("testdata", "report.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report(&buf, tr, 3)
	rows := section(t, buf.String(), "top spans by flops")
	want := [][2]string{{"backend.truncsvd", "7168"}, {"einsum", "4096"}, {"einsum", "512"}}
	if len(rows) != len(want) {
		t.Fatalf("flops ranking has %d rows, want %d: %v", len(rows), len(want), rows)
	}
	for i, w := range want {
		if rows[i][0] != w[0] || rows[i][4] != w[1] {
			t.Fatalf("row %d = %v, want span %s with %s flops", i, rows[i], w[0], w[1])
		}
	}
}

// TestReportFlopsFromInstrumentedEngine traces real contractions through
// the bare dense engine and requires each einsum span's flops to be
// exactly the GEMM flops of its own shapes, so the report's flops
// ranking follows contraction size.
func TestReportFlopsFromInstrumentedEngine(t *testing.T) {
	var log bytes.Buffer
	obs.Enable(obs.NewJSONLSink(&log))
	eng := backend.NewDense()
	eng.Einsum("ij,jk->ik", tensor.New(2, 3), tensor.New(3, 4))
	eng.Einsum("ij,jk->ik", tensor.New(8, 16), tensor.New(16, 4))
	eng.Einsum("ij,jk->ik", tensor.New(4, 4), tensor.New(4, 4))
	if err := obs.Disable(); err != nil {
		t.Fatal(err)
	}
	tr, err := obsfile.Read(&log)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report(&buf, tr, 10)
	rows := section(t, buf.String(), "top spans by flops")
	want := []int64{einsum.FlopCount(1, 8, 4, 16), einsum.FlopCount(1, 4, 4, 4), einsum.FlopCount(1, 2, 4, 3)}
	if len(rows) != len(want) {
		t.Fatalf("flops ranking has %d rows, want %d: %v", len(rows), len(want), rows)
	}
	for i, w := range want {
		if rows[i][0] != "einsum" || rows[i][4] != strconv.FormatInt(w, 10) {
			t.Fatalf("row %d = %v, want einsum with %d flops", i, rows[i], w)
		}
	}
}
