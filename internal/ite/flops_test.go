package ite

import (
	"math/rand"
	"runtime"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/einsumsvd"
	"gokoala/internal/peps"
	"gokoala/internal/pool"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// TestFlopCountIdenticalAcrossWorkers pins the accounting contract: every
// kernel charges the global flop counter once, by the shapes it works on,
// so the tensor.FlopCount delta of a run is identical at every pool size
// and GOMAXPROCS. Concurrent lattice tasks (the two halves of a bisected
// boundary contraction, the gates of a checkerboard wave) must neither
// add to nor subtract from each other's charges.
func TestFlopCountIdenticalAcrossWorkers(t *testing.T) {
	contract := func(strategy einsumsvd.Strategy) {
		p := peps.RandomNoPhys(backend.NewDense(), rand.New(rand.NewSource(7)), 6, 4, 3)
		p.ContractScalar(peps.BMPS{M: 6, Strategy: strategy})
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"bisected-bmps", func() { contract(einsumsvd.Explicit{}) }},
		{"bisected-ibmps", func() {
			contract(einsumsvd.ImplicitRand{Rng: rand.New(rand.NewSource(11)), NIter: 1})
		}},
		{"ite-step-truncsvd", func() {
			h := quantum.TransverseFieldIsing(3, 3, -1, -2.5)
			state := PlusState(peps.ComputationalZeros(backend.NewDense(), 3, 3))
			Evolve(state, h, Options{
				Tau:             0.05,
				Steps:           1,
				EvolutionRank:   2,
				ContractionRank: 4,
				Strategy:        einsumsvd.Explicit{},
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer pool.SetWorkers(0)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			want := int64(-1)
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				for _, w := range []int{1, 2, 4} {
					pool.SetWorkers(w)
					before := tensor.FlopCount()
					tc.run()
					got := tensor.FlopCount() - before
					if want < 0 {
						want = got
						continue
					}
					if got != want {
						t.Fatalf("GOMAXPROCS=%d workers=%d: %d flops, want %d (GOMAXPROCS=1 workers=1)",
							procs, w, got, want)
					}
				}
			}
		})
	}
}
