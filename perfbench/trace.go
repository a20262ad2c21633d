package main

import (
	"runtime"

	"gokoala/internal/einsum"
	"gokoala/internal/health"
	"gokoala/internal/tensor"
)

// Indexes into counters: the recorder's plan-derived einsum cost, the
// process-wide counters the program keeps, then the recorder's engine
// calls and busy nanoseconds per kind.
const (
	cFlops = iota
	cMovedElems
	cGEMMs
	cTensorFlops
	cPlanHits
	cPlanMisses
	cSymContractions
	cSymBlocks
	cSymFlops
	cSymDenseFlops
	cSVDFallbacks
	cGramFallbacks
	cNonconverged
	cAllocBytes
	cGCPauseNs
	cGCCycles
	cCalls                          // + kind
	cBusyNs     = cCalls + numKinds // + kind
	numCounters = cBusyNs + numKinds
)

type counters [numCounters]int64

// snapshot reads the recorder and the process-wide counters.
func snapshot(rec *recorder) counters {
	rec.mu.Lock()
	c := rec.c
	rec.mu.Unlock()
	c[cTensorFlops] = tensor.FlopCount()
	c[cPlanHits], c[cPlanMisses], _ = einsum.PlanCacheStats()
	c[cSymContractions], c[cSymBlocks], c[cSymFlops], c[cSymDenseFlops] = einsum.SymStats()
	c[cSVDFallbacks] = health.SVDFallbacks()
	c[cGramFallbacks] = health.GramFallbacks()
	c[cNonconverged] = health.Nonconverged()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cAllocBytes], c[cGCPauseNs], c[cGCCycles] = int64(ms.TotalAlloc), int64(ms.PauseTotalNs), int64(ms.NumGC)
	return c
}

// layerStats accumulates what the traced operations of one run did:
// counter deltas, and the wall time of each step or amplitude split
// into the part engine spans cover and the rest (peps.self_s).
type layerStats struct {
	ops               int
	sum               counters // summed per-op deltas
	tensorFlops       []float64
	planMisses        []float64
	wallNs, coveredNs int64
	tracedWall, plain []float64 // op wall times, traced and untraced
}

// addOp adds one traced operation: its counter deltas, its wall time,
// and how much of its step or amplitude windows (windowNs in total)
// engine spans covered.
func (s *layerStats) addOp(before, after counters, wallS float64, windowNs, coveredNs int64) {
	s.ops++
	s.wallNs += windowNs
	s.coveredNs += coveredNs
	for i := range s.sum {
		s.sum[i] += after[i] - before[i]
	}
	s.tensorFlops = append(s.tensorFlops, float64(after[cTensorFlops]-before[cTensorFlops]))
	s.planMisses = append(s.planMisses, float64(after[cPlanMisses]-before[cPlanMisses]))
	s.tracedWall = append(s.tracedWall, wallS)
}

// report sets every per-layer metric. Counts and times are per traced
// operation: one ITE solve, or one amplitude.
func (s *layerStats) report(r *result) {
	n := float64(max(s.ops, 1))
	per := func(i int) float64 { return float64(s.sum[i]) / n }
	var busyNs int64
	for k := 0; k < numKinds; k++ {
		r.set("backend."+kindNames[k]+".calls", "count/op", per(cCalls+k))
		r.set("backend."+kindNames[k]+".busy_s", "s/op", per(cBusyNs+k)/1e9)
		busyNs += s.sum[cBusyNs+k]
	}
	r.set("einsum.flops", "flop/op", per(cFlops))
	r.set("einsum.moved_bytes", "B/op", per(cMovedElems)*16)
	r.set("einsum.gemms", "count/op", per(cGEMMs))
	// A complex multiply-add is 8 real floating-point operations.
	r.set("einsum.gflops", "GFLOP/s", ratio(8*float64(s.sum[cFlops]), float64(s.sum[cBusyNs+kindEinsum])))
	r.set("einsum.plan_hits", "count/op", per(cPlanHits))
	r.set("einsum.plan_misses", "count/op", per(cPlanMisses))
	r.set("einsum.plan_misses_spread", "ratio", spread(s.planMisses))
	r.set("einsum.plan_hit_ratio", "ratio", ratio(float64(s.sum[cPlanHits]), float64(s.sum[cPlanHits]+s.sum[cPlanMisses])))
	r.set("einsum.sym_contractions", "count/op", per(cSymContractions))
	r.set("einsum.sym_blocks", "count/op", per(cSymBlocks))
	r.set("einsum.sym_flops", "flop/op", per(cSymFlops))
	r.set("einsum.sym_flop_ratio", "ratio", ratio(float64(s.sum[cSymFlops]), float64(s.sum[cSymDenseFlops])))
	r.set("health.svd_fallbacks", "count/op", per(cSVDFallbacks))
	r.set("health.gram_fallbacks", "count/op", per(cGramFallbacks))
	r.set("health.nonconverged", "count/op", per(cNonconverged))
	r.set("peps.self_s", "s/op", float64(s.wallNs-s.coveredNs)/n/1e9)
	r.set("pool.overlap", "ratio", ratio(float64(busyNs), float64(s.coveredNs)))
	r.set("go.alloc_mb", "MB/op", per(cAllocBytes)/(1<<20))
	r.set("go.gc_cycles", "count/op", per(cGCCycles))
	r.set("go.gc_pause_s", "s/op", per(cGCPauseNs)/1e9)
	r.set("tensor.flops", "flop/op", per(cTensorFlops))
	r.set("tensor.flops_spread", "ratio", spread(s.tensorFlops))
	r.set("trace.overhead_ratio", "ratio", median(s.tracedWall)/median(s.plain)-1)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
