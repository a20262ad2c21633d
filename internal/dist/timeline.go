package dist

import (
	"sync"

	"gokoala/internal/obs"
)

// Per-rank timelines: besides the aggregate Stats accounting, every
// metered collective and flop credit assigns each modeled rank its share
// of the α-β-γ time — compute for the ranks a kernel actually uses,
// message latency and byte-transfer time for every participant of a
// collective, and imbalance wait for the ranks a partially-parallel
// kernel leaves idle (ChargeFlops below the rank count: the Gram
// method, where rank 0 factorizes while the rest of the machine waits).
// This is the per-rank compute/communication breakdown the paper's
// scaling discussion (Figures 8-10, Table II) attributes cliffs with.
//
// The model is bulk-synchronous, so every operation advances every
// rank's timeline by the same wall duration; each rank's total therefore
// equals the grid's ModeledSeconds, and the per-rank split shows where
// that rank spent the time. Totals accumulate in integer picoseconds
// under the grid mutex, exactly like the aggregate Stats, so they are
// bit-identical for any worker count and interleaving. Segment lists —
// kept only while obs collection is enabled, coalesced when consecutive
// operations land in the same category, and truncated at a cap — feed
// the per-rank tracks of the Chrome trace and are the one
// order-dependent (hence never gated) part.

// Timeline segment kinds.
const (
	segCompute = iota
	segLatency
	segBandwidth
	segWait
	numSegKinds
)

var segKindNames = [numSegKinds]string{"compute", "latency", "bandwidth", "wait"}

// maxRankSegments bounds one rank's stored segment list; past the cap
// new operations still accumulate into the totals but detail is dropped
// (Truncated is reported so analyzers can say so).
const maxRankSegments = 2048

type rankSeg struct {
	kind  uint8
	durPs int64
}

// rankAcct is one modeled rank's accumulated timeline.
type rankAcct struct {
	ps        [numSegKinds]int64
	segs      []rankSeg
	truncated bool
}

// add advances the rank's timeline by durPs in the given category,
// coalescing into the previous segment when the category repeats.
func (r *rankAcct) add(kind uint8, durPs int64, keepSegs bool) {
	r.ps[kind] += durPs
	if !keepSegs || durPs == 0 {
		return
	}
	if n := len(r.segs); n > 0 && r.segs[n-1].kind == kind {
		r.segs[n-1].durPs += durPs
		return
	}
	if len(r.segs) >= maxRankSegments {
		r.truncated = true
		return
	}
	r.segs = append(r.segs, rankSeg{kind, durPs})
}

// rankComm advances every rank by a collective's latency and bandwidth
// time. Caller holds g.mu.
func (g *Grid) rankComm(latPs, bwPs int64) {
	g.ensureRanks()
	keep := obs.Enabled()
	for i := range g.ranks {
		g.ranks[i].add(segLatency, latPs, keep)
		g.ranks[i].add(segBandwidth, bwPs, keep)
	}
}

// rankComp advances ranks 0..eff-1 by a kernel's compute time and parks
// the remaining ranks in imbalance wait for the same duration. Caller
// holds g.mu.
func (g *Grid) rankComp(compPs int64, eff int) {
	g.ensureRanks()
	keep := obs.Enabled()
	for i := range g.ranks {
		if i < eff {
			g.ranks[i].add(segCompute, compPs, keep)
		} else {
			g.ranks[i].add(segWait, compPs, keep)
		}
	}
}

// ensureRanks lazily allocates the per-rank accounts. Caller holds g.mu.
func (g *Grid) ensureRanks() {
	if g.ranks == nil {
		g.ranks = make([]rankAcct, g.Machine.Ranks)
	}
}

// SetLabel names the grid in rank-timeline records (engine name in the
// bench suites); returns the grid for chaining.
func (g *Grid) SetLabel(name string) *Grid {
	g.mu.Lock()
	g.label = name
	g.mu.Unlock()
	return g
}

// RankTimelines snapshots every rank's accumulated timeline. Ranks with
// no accumulated time at all yield records with zero totals (the grid
// was never driven); callers typically skip all-zero grids.
func (g *Grid) RankTimelines() []obs.RankRecord {
	g.mu.Lock()
	defer g.mu.Unlock()
	label := g.label
	if label == "" {
		label = "grid"
	}
	out := make([]obs.RankRecord, len(g.ranks))
	for i := range g.ranks {
		r := &g.ranks[i]
		rec := obs.RankRecord{
			Grid:        label,
			Rank:        i,
			CompSeconds: secs(r.ps[segCompute]),
			LatSeconds:  secs(r.ps[segLatency]),
			BWSeconds:   secs(r.ps[segBandwidth]),
			WaitSeconds: secs(r.ps[segWait]),
		}
		if len(r.segs) > 0 {
			rec.Segments = make([]obs.RankSegment, len(r.segs))
			for j, s := range r.segs {
				rec.Segments[j] = obs.RankSegment{Kind: segKindNames[s.kind], Seconds: secs(s.durPs)}
			}
		}
		out[i] = rec
	}
	return out
}

// --- grid registry for end-of-run emission ---

// Grids register themselves while obs collection is enabled so the
// orchestrating command (koala-bench, cliutil.Finish) can emit every
// driven grid's rank timelines into the trace sinks without threading
// grid handles through every experiment.
var timelineReg struct {
	mu    sync.Mutex
	grids []*Grid
}

func registerGrid(g *Grid) {
	if !obs.Enabled() {
		return
	}
	timelineReg.mu.Lock()
	timelineReg.grids = append(timelineReg.grids, g)
	timelineReg.mu.Unlock()
}

// ResetTimelines clears the grid registry; call alongside
// obs.ResetCounters when starting a fresh measured region.
func ResetTimelines() {
	timelineReg.mu.Lock()
	timelineReg.grids = nil
	timelineReg.mu.Unlock()
}

// FlushTimelines emits the rank timelines of every grid registered since
// the last ResetTimelines into the installed obs sinks (JSONL "rank"
// records, Chrome per-rank tracks), skipping grids that were never
// driven. Returns the number of rank records emitted.
func FlushTimelines() int {
	timelineReg.mu.Lock()
	grids := append([]*Grid(nil), timelineReg.grids...)
	timelineReg.mu.Unlock()
	n := 0
	for _, g := range grids {
		for _, rec := range g.RankTimelines() {
			if rec.TotalSeconds() == 0 && len(rec.Segments) == 0 {
				continue
			}
			obs.EmitRank(rec)
			n++
		}
	}
	return n
}
