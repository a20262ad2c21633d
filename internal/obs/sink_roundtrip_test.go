package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// chromeEvents parses a flushed Chrome trace back into raw events.
func chromeEvents(t *testing.T, buf *bytes.Buffer) []map[string]interface{} {
	t.Helper()
	var evs []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	return evs
}

// The Chrome trace must place spans on pid 1 with tid = 1 + track, and
// child span timestamps must nest inside their parents.
func TestChromeTraceTracksAndNesting(t *testing.T) {
	cleanup()
	var buf bytes.Buffer
	Enable(NewChromeTraceSink(&buf))

	parent := Start("parent")
	lane := parent.StartChild("lane-work").SetTrack(2)
	lane.End()
	child := Start("child")
	child.End()
	parent.End()
	if err := Disable(); err != nil {
		t.Fatal(err)
	}

	byName := map[string]map[string]interface{}{}
	for _, e := range chromeEvents(t, &buf) {
		if e["ph"] == "X" {
			byName[e["name"].(string)] = e
		}
	}
	for name, wantTID := range map[string]float64{"parent": 1, "child": 1, "lane-work": 3} {
		e, ok := byName[name]
		if !ok {
			t.Fatalf("span %q missing from chrome trace", name)
		}
		if e["pid"].(float64) != 1 {
			t.Fatalf("%q on pid %v, want 1", name, e["pid"])
		}
		if e["tid"].(float64) != wantTID {
			t.Fatalf("%q on tid %v, want %v", name, e["tid"], wantTID)
		}
	}
	p, c := byName["parent"], byName["child"]
	pStart, pEnd := p["ts"].(float64), p["ts"].(float64)+p["dur"].(float64)
	cStart, cEnd := c["ts"].(float64), c["ts"].(float64)+c["dur"].(float64)
	if cStart < pStart || cEnd > pEnd+1 { // +1us for rounding
		t.Fatalf("child [%v,%v] not nested in parent [%v,%v]", cStart, cEnd, pStart, pEnd)
	}
}

// Rank timelines must land on their own per-grid process with one tid
// per rank and back-to-back segments.
func TestChromeTraceRankTracks(t *testing.T) {
	cleanup()
	var buf bytes.Buffer
	Enable(NewChromeTraceSink(&buf))

	EmitRank(RankRecord{
		Grid: "gridA", Rank: 0, CompSeconds: 2e-6,
		Segments: []RankSegment{{Kind: "compute", Seconds: 1e-6}, {Kind: "wait", Seconds: 1e-6}},
	})
	EmitRank(RankRecord{
		Grid: "gridA", Rank: 1, WaitSeconds: 2e-6,
		Segments: []RankSegment{{Kind: "wait", Seconds: 2e-6}},
	})
	if err := Disable(); err != nil {
		t.Fatal(err)
	}

	var meta, segs []map[string]interface{}
	for _, e := range chromeEvents(t, &buf) {
		switch e["ph"] {
		case "M":
			meta = append(meta, e)
		case "X":
			segs = append(segs, e)
		}
	}
	if len(meta) != 1 || meta[0]["pid"].(float64) != 2 {
		t.Fatalf("want one process_name meta event on pid 2, got %+v", meta)
	}
	if len(segs) != 3 {
		t.Fatalf("want 3 segment events, got %d", len(segs))
	}
	var cursor float64
	for _, e := range segs {
		if e["pid"].(float64) != 2 {
			t.Fatalf("rank segment on pid %v, want 2", e["pid"])
		}
		tid := e["tid"].(float64)
		if tid != 1 && tid != 2 {
			t.Fatalf("rank segment on tid %v, want 1 or 2", tid)
		}
		if tid == 1 { // rank 0: segments laid out back to back
			if e["ts"].(float64) != cursor {
				t.Fatalf("segment ts %v, want %v", e["ts"], cursor)
			}
			cursor += e["dur"].(float64)
		}
	}
}

// A JSONL log must round-trip rank totals bit-exactly; the segment
// detail is Chrome-trace-only (it would dominate the log size).
func TestJSONLRankRoundTrip(t *testing.T) {
	cleanup()
	var buf bytes.Buffer
	Enable(NewJSONLSink(&buf))

	want := RankRecord{
		Grid: "g", Rank: 3,
		CompSeconds: 0.125, LatSeconds: 0.25, BWSeconds: 0.0625, WaitSeconds: 0.5,
		Segments: []RankSegment{{Kind: "compute", Seconds: 0.125}},
	}
	EmitRank(want)
	if err := Disable(); err != nil {
		t.Fatal(err)
	}

	var got struct {
		Type string `json:"type"`
		RankRecord
	}
	line, err := buf.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if got.Type != "rank" {
		t.Fatalf("record type %q, want rank", got.Type)
	}
	if got.Grid != want.Grid || got.Rank != want.Rank ||
		got.CompSeconds != want.CompSeconds || got.LatSeconds != want.LatSeconds ||
		got.BWSeconds != want.BWSeconds || got.WaitSeconds != want.WaitSeconds {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got.RankRecord)
	}
	if len(got.Segments) != 0 {
		t.Fatalf("JSONL rank records must omit segment detail, got %d segments", len(got.Segments))
	}
}
