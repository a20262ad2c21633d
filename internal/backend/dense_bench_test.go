package backend

import (
	"math/rand"
	"testing"

	"gokoala/internal/tensor"
)

// denseBMPSSequence mirrors internal/einsum's BMPS-shaped repeated
// contraction sequence, driven through the dense engine so the kernels'
// pool-wide row splitting and in-place GEMM paths are on the measured
// path.
var denseBMPSSequence = []struct {
	spec   string
	shapes [][]int
}{
	{"ULDRp,uldrp->UuLlDdRr", [][]int{{4, 4, 4, 4, 2}, {4, 4, 4, 4, 2}}},
	{"ac,apqb,cpqd->bd", [][]int{{8, 8}, {8, 4, 4, 8}, {8, 4, 4, 8}}},
	{"abck,kin->abcni", [][]int{{4, 4, 4, 8}, {8, 2, 8}}},
	{"kb,bpc->kpc", [][]int{{8, 8}, {8, 2, 8}}},
}

func BenchmarkDenseBMPSSequence(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	eng := NewDense()
	ops := make([][]*tensor.Dense, len(denseBMPSSequence))
	for i, s := range denseBMPSSequence {
		ops[i] = make([]*tensor.Dense, len(s.shapes))
		for j, sh := range s.shapes {
			ops[i][j] = tensor.Rand(rng, sh...)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, s := range denseBMPSSequence {
			eng.Einsum(s.spec, ops[j]...)
		}
	}
}

// BenchmarkDenseBatchGEMM exercises the batched multiply's row
// partitioning over the worker pool on a mid-sized workload.
func BenchmarkDenseBatchGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	eng := NewDense()
	x := tensor.Rand(rng, 8, 64, 64)
	y := tensor.Rand(rng, 8, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Einsum("bij,bjk->bik", x, y)
	}
}
