package einsum

import (
	"math/rand"
	"testing"

	"gokoala/internal/tensor"
)

// bmpsSequence is the repeated, structurally identical contraction
// sequence of one BMPS sweep step at Figure 7a sizes (PEPS bond r = 4,
// boundary bond m = 8, physical dimension 2): the double-layer site
// merge, a boundary environment absorption, a QR-update recombination,
// and an MPS zip-up carry. A BMPS sweep evaluates these specs
// over and over with the same operand shapes, which is exactly the
// reuse the plan cache targets.
var bmpsSequence = []struct {
	spec   string
	shapes [][]int
}{
	// Double-layer merge of bra and ket site tensors (peps.MergeLayers).
	{"ULDRp,uldrp->UuLlDdRr", [][]int{{4, 4, 4, 4, 2}, {4, 4, 4, 4, 2}}},
	// Boundary environment absorption of one column (peps twolayer).
	{"ac,apqb,cpqd->bd", [][]int{{8, 8}, {8, 4, 4, 8}, {8, 4, 4, 8}}},
	// QR-update recombination (peps.ApplyTwoSite, Algorithm 1).
	{"abck,kin->abcni", [][]int{{4, 4, 4, 8}, {8, 2, 8}}},
	// Carry absorption into the next site (mps zip-up).
	{"kb,bpc->kpc", [][]int{{8, 8}, {8, 2, 8}}},
}

// bmpsOperands materializes fixed-seed operands for the sequence.
func bmpsOperands() [][]*tensor.Dense {
	rng := rand.New(rand.NewSource(7))
	ops := make([][]*tensor.Dense, len(bmpsSequence))
	for i, s := range bmpsSequence {
		ops[i] = make([]*tensor.Dense, len(s.shapes))
		for j, sh := range s.shapes {
			ops[i][j] = tensor.Rand(rng, sh...)
		}
	}
	return ops
}

// BenchmarkBMPSSequence contracts the BMPS-shaped sequence through the
// default engine path. Each b.N iteration is one full sequence pass, so
// -benchtime 100x repeats every spec 100 times with identical shapes.
func BenchmarkBMPSSequence(b *testing.B) {
	ops := bmpsOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, s := range bmpsSequence {
			MustContract(s.spec, ops[j]...)
		}
	}
}

// BenchmarkBMPSSequenceUncached runs the same sequence through the
// direct evaluation path, re-planning every contraction; the gap to
// BenchmarkBMPSSequence is what the plan cache buys.
func BenchmarkBMPSSequenceUncached(b *testing.B) {
	ops := bmpsOperands()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, s := range bmpsSequence {
			if _, err := contractUncached(s.spec, ops[j], Hooks{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBMPSSequenceHitRate asserts, as a side effect of the
// benchmark run, that the plan cache absorbs the repeated sequence: one
// compile per distinct signature, everything else a hit.
func BenchmarkBMPSSequenceHitRate(b *testing.B) {
	ops := bmpsOperands()
	ResetPlanCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, s := range bmpsSequence {
			MustContract(s.spec, ops[j]...)
		}
	}
	b.StopTimer()
	hits, misses, _ := PlanCacheStats()
	if total := hits + misses; total > 0 {
		b.ReportMetric(float64(hits)/float64(total), "hit-rate")
	}
}
