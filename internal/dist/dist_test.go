package dist

import (
	"math"
	"math/rand"
	"testing"

	"gokoala/internal/tensor"
)

func TestMachineNodes(t *testing.T) {
	m := Stampede2(64)
	if m.Nodes() != 1 {
		t.Fatalf("64 ranks should be 1 node, got %d", m.Nodes())
	}
	m = Stampede2(65)
	if m.Nodes() != 2 {
		t.Fatalf("65 ranks should be 2 nodes, got %d", m.Nodes())
	}
	m = Stampede2(4096)
	if m.Nodes() != 64 {
		t.Fatalf("4096 ranks should be 64 nodes, got %d", m.Nodes())
	}
}

func TestIntraNodeCommIsCheaper(t *testing.T) {
	oneNode := Stampede2(64)
	multi := Stampede2(128)
	if oneNode.alphaEff() >= multi.alphaEff() {
		t.Fatal("intra-node latency should be cheaper")
	}
	if oneNode.betaEff() >= multi.betaEff() {
		t.Fatal("intra-node bandwidth should be cheaper")
	}
}

func TestGridMatMulMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ranks := range []int{1, 3, 16, 64} {
		g := NewGrid(Stampede2(ranks))
		a := tensor.Rand(rng, 17, 9)
		b := tensor.Rand(rng, 9, 13)
		got := g.MatMul(a, b)
		want := tensor.MatMul(a, b)
		if !tensor.AllClose(got, want, 1e-12, 1e-12) {
			t.Fatalf("ranks=%d: distributed MatMul differs from sequential", ranks)
		}
	}
}

func TestGridMatMulFewerRowsThanRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewGrid(Stampede2(64))
	a := tensor.Rand(rng, 2, 5)
	b := tensor.Rand(rng, 5, 3)
	got := g.MatMul(a, b)
	if !tensor.AllClose(got, tensor.MatMul(a, b), 1e-12, 1e-12) {
		t.Fatal("small matmul wrong")
	}
}

func TestGridBatchMatMulMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bt := range []int{1, 2, 20} {
		g := NewGrid(Stampede2(8))
		a := tensor.Rand(rng, bt, 6, 7)
		b := tensor.Rand(rng, bt, 7, 4)
		got := g.BatchMatMul(a, b)
		want := tensor.BatchMatMul(a, b)
		if !tensor.AllClose(got, want, 1e-12, 1e-12) {
			t.Fatalf("bt=%d: distributed BatchMatMul differs", bt)
		}
	}
}

func TestGramMatrixMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewGrid(Stampede2(16))
	a := tensor.Rand(rng, 40, 6)
	got := g.GramMatrix(a)
	want := tensor.MatMul(a.Conj().Transpose(1, 0), a)
	if !tensor.AllClose(got, want, 1e-11, 1e-11) {
		t.Fatal("distributed Gram matrix differs from sequential")
	}
}

func TestGramMovesLessDataThanGather(t *testing.T) {
	// The whole point of Algorithm 5: Gram method's traffic is O(n^2),
	// independent of the tall dimension m.
	rng := rand.New(rand.NewSource(5))
	g := NewGrid(Stampede2(16))
	a := tensor.Rand(rng, 4096, 8)
	g.Reset()
	g.GramMatrix(a)
	gramBytes := g.Snapshot().Bytes
	g.Reset()
	g.AllToAll(int64(a.Size()) * 16) // what a distributed reshape would cost
	reshapeBytes := g.Snapshot().Bytes
	if gramBytes*10 > reshapeBytes {
		t.Fatalf("gram traffic %d should be far below reshape traffic %d", gramBytes, reshapeBytes)
	}
}

func TestCountersAndReset(t *testing.T) {
	g := NewGrid(Stampede2(8))
	g.Allgather(1000)
	g.AllToAll(2000)
	g.Gather(500)
	g.Bcast(100)
	g.Allreduce(64)
	g.ParallelFlops(1_000_000)
	s := g.Snapshot()
	if s.Msgs == 0 || s.Bytes != 3664 || s.CommSeconds() <= 0 {
		t.Fatalf("counters wrong: %+v", s)
	}
	if s.Redistributions != 1 {
		t.Fatalf("redistributions = %d", s.Redistributions)
	}
	if s.ParallelFlops != 1_000_000 || s.CompSeconds <= 0 {
		t.Fatalf("flops wrong: %+v", s)
	}
	g.Reset()
	if z := g.Snapshot(); z.Msgs != 0 || z.Bytes != 0 || z.CommSeconds() != 0 || z.CompSeconds != 0 {
		t.Fatalf("reset failed: %+v", z)
	}
}

func TestSingleRankCollectivesFree(t *testing.T) {
	g := NewGrid(Stampede2(1))
	g.Allgather(1 << 20)
	g.AllToAll(1 << 20)
	g.Gather(1 << 20)
	g.Bcast(1 << 20)
	g.Allreduce(1 << 20)
	if s := g.Snapshot(); s.Bytes != 0 || s.CommSeconds() != 0 {
		t.Fatalf("single-rank collectives should be free: %+v", s)
	}
}

func TestSequentialMetering(t *testing.T) {
	g := NewGrid(Stampede2(4))
	g.ChargeFlops(1000, 1)
	s := g.Snapshot()
	if s.SequentialFlops != 1000 || s.ParallelFlops != 0 {
		t.Fatalf("sequential/parallel flops = %d/%d, want 1000/0", s.SequentialFlops, s.ParallelFlops)
	}
	// Sequential work is not divided by rank count. The accumulator holds
	// integer picoseconds, so allow that quantization (far below any
	// modeled cost) when comparing against the float expectation.
	want := g.Machine.Gamma * 1000
	if diff := math.Abs(s.CompSeconds - want); diff > 1e-12 {
		t.Fatalf("comp seconds = %g, want %g", s.CompSeconds, want)
	}
}

func TestChargeFlopsClampsEff(t *testing.T) {
	for _, tc := range []struct {
		eff, div int
	}{{100, 4}, {0, 1}, {-3, 1}} {
		g := NewGrid(Stampede2(4))
		g.ChargeFlops(1000, tc.eff)
		// eff clamps to [1, 4] ranks; tolerance covers picosecond
		// quantization.
		want := g.Machine.Gamma * 1000 / float64(tc.div)
		if diff := g.Snapshot().CompSeconds - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("eff %d: comp seconds = %g, want %g", tc.eff, g.Snapshot().CompSeconds, want)
		}
	}
}

func TestStatsSubAndModeledSeconds(t *testing.T) {
	g := NewGrid(Stampede2(8))
	g.ParallelFlops(800)
	before := g.Snapshot()
	g.Allgather(1 << 10)
	g.ParallelFlops(1600)
	delta := g.Snapshot().Sub(before)
	if delta.ParallelFlops != 1600 {
		t.Fatalf("delta flops = %d", delta.ParallelFlops)
	}
	if delta.ModeledSeconds() <= 0 {
		t.Fatal("modeled seconds should be positive")
	}
	if delta.CommSeconds() <= 0 {
		t.Fatal("comm seconds missing from delta")
	}
}

func TestMoreRanksReduceComputeTime(t *testing.T) {
	// Strong-scaling sanity of the model: same flops, more ranks, less
	// compute time; communication grows with latency terms.
	small := NewGrid(Stampede2(4))
	big := NewGrid(Stampede2(64))
	small.ParallelFlops(1 << 30)
	big.ParallelFlops(1 << 30)
	if small.Snapshot().CompSeconds <= big.Snapshot().CompSeconds {
		t.Fatal("more ranks should reduce parallel compute time")
	}
}
