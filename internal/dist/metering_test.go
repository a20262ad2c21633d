package dist

import (
	"math"
	"sync"
	"testing"

	"gokoala/internal/obs"
)

// Satellite coverage for the collective metering identities the cost
// model promises (paper Table/§V): single-rank no-ops, the allreduce
// recursive-halving/doubling charge, and the alltoall message count and
// redistribution accounting.

// Every collective at Ranks<=1 must be a strict no-op: not just "free"
// but zero across the entire Stats struct, redistribution counts
// included.
func TestCollectivesStrictNoOpAtOneRank(t *testing.T) {
	collectives := map[string]func(*Grid){
		"bcast":     func(g *Grid) { g.Bcast(1 << 20) },
		"gather":    func(g *Grid) { g.Gather(1 << 20) },
		"allgather": func(g *Grid) { g.Allgather(1 << 20) },
		"allreduce": func(g *Grid) { g.Allreduce(1 << 20) },
		"alltoall":  func(g *Grid) { g.AllToAll(1 << 20) },
	}
	for name, call := range collectives {
		t.Run(name, func(t *testing.T) {
			g := NewGrid(Stampede2(1))
			call(g)
			if s := g.Snapshot(); s != (Stats{}) {
				t.Errorf("%s at ranks=1 left a nonzero snapshot: %+v", name, s)
			}
		})
	}
}

// Allreduce charges 2*log2(P) messages and twice the allgather latency
// and bandwidth of the same payload (recursive halving/doubling).
func TestAllreduceMeteringIdentity(t *testing.T) {
	const bytes = 1 << 16
	for _, p := range []int{2, 3, 4, 7, 8, 64, 100} {
		g := NewGrid(Stampede2(p))
		g.Allreduce(bytes)
		s := g.Snapshot()
		if want := 2 * log2msgs(p); s.Msgs != want {
			t.Errorf("P=%d: allreduce msgs = %d, want 2*log2(P) = %d", p, s.Msgs, want)
		}
		lat, bw := g.Machine.allgatherSeconds(bytes)
		if want := secs(picos(2 * lat)); s.CommLatencySeconds != want {
			t.Errorf("P=%d: allreduce latency = %g, want 2x allgather = %g", p, s.CommLatencySeconds, want)
		}
		if want := secs(picos(2 * bw)); s.BWSmallSeconds != want {
			t.Errorf("P=%d: allreduce bandwidth = %g, want 2x allgather = %g", p, s.BWSmallSeconds, want)
		}
		// Allreduce is a small-matrix (Gram-path) collective: its byte
		// time must land in the small class, nowhere else.
		if s.BWBigSeconds != 0 || s.BWGemmSeconds != 0 {
			t.Errorf("P=%d: allreduce leaked into other bandwidth classes: %+v", p, s)
		}
	}
}

// AllToAll charges P*(P-1) messages and exactly one redistribution per
// call.
func TestAllToAllMeteringIdentity(t *testing.T) {
	for _, p := range []int{2, 3, 8, 100} {
		g := NewGrid(Stampede2(p))
		g.AllToAll(1 << 18)
		s := g.Snapshot()
		if want := int64(p) * int64(p-1); s.Msgs != want {
			t.Errorf("P=%d: alltoall msgs = %d, want P*(P-1) = %d", p, s.Msgs, want)
		}
		if s.Redistributions != 1 {
			t.Errorf("P=%d: alltoall redistributions = %d, want exactly 1", p, s.Redistributions)
		}
		g.AllToAll(1 << 18)
		if s := g.Snapshot(); s.Redistributions != 2 {
			t.Errorf("P=%d: second alltoall redistributions = %d, want 2", p, s.Redistributions)
		}
	}
}

// Regression test for the addComm publish ordering bug: observeComm used
// to run after g.mu was released, so concurrent collectives could
// publish obs samples out of order relative to the counters they
// describe. With publishing under the lock, the obs mirrors must agree
// exactly with the grid totals after any concurrent schedule — run under
// -race this also proves the locking. Deltas are measured against other
// tests' contributions to the global obs registry.
func TestObsPublishOrderingUnderConcurrentCollectives(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	baseMsgs := obs.MetricValueOf("dist.comm.msgs")
	baseBytes := obs.MetricValueOf("dist.comm.bytes")
	baseRedists := obs.MetricValueOf("dist.redistributions")
	baseOps := [NumOps]float64{}
	for op := Op(0); op < NumOps; op++ {
		baseOps[op] = obs.MetricValueOf("dist.modeled." + op.String() + "_seconds")
	}

	g := NewGrid(Stampede2(64))
	const workers = 8
	const iters = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g.Bcast(int64(128 + w))
				g.Gather(int64(4096 + i))
				g.Allgather(2048)
				g.Allreduce(int64(64 * (w + 1)))
				g.AllToAll(int64(8192 + i + w))
			}
		}(w)
	}
	wg.Wait()

	s := g.Snapshot()
	if got := obs.MetricValueOf("dist.comm.msgs") - baseMsgs; got != float64(s.Msgs) {
		t.Errorf("obs msgs delta = %v, grid msgs = %d", got, s.Msgs)
	}
	if got := obs.MetricValueOf("dist.comm.bytes") - baseBytes; got != float64(s.Bytes) {
		t.Errorf("obs bytes delta = %v, grid bytes = %d", got, s.Bytes)
	}
	if got := obs.MetricValueOf("dist.redistributions") - baseRedists; got != float64(s.Redistributions) {
		t.Errorf("obs redistributions delta = %v, grid = %d", got, s.Redistributions)
	}
	// Per-op modeled seconds: the grid holds integer picoseconds (each
	// addComm rounds lat and bw once) while the obs counter sums floats,
	// so the two can differ by up to 1 ps per rounded addend.
	tol := 2e-12 * float64(workers*iters)
	for _, os := range g.OpBreakdown() {
		got := obs.MetricValueOf("dist.modeled."+os.Op.String()+"_seconds") - baseOps[os.Op]
		if math.Abs(got-os.ModeledSeconds) > tol {
			t.Errorf("op %v: obs modeled seconds delta = %v, grid = %v", os.Op, got, os.ModeledSeconds)
		}
	}
}
