package bench

import (
	"fmt"
	"io"
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/peps"
	"gokoala/internal/rqc"
)

// Fig10Config controls the RQC contraction-accuracy study.
type Fig10Config struct {
	Sides  []int // lattice side lengths n
	Layers int   // RQC depth (4 layers -> bond 4, 8 layers -> bond 16)
	Ms     []int // contraction bond dimensions
	Seed   int64
}

// DefaultFig10Config mirrors paper Figure 10 at reduced scale: the paper
// contracts 8-layer (bond 16) circuits on 4x4..7x7 lattices with m up to
// 256; here 4-layer (bond 4) circuits on 4x4 and 5x5 with m up to 32 show
// the same threshold behaviour within single-core budgets.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{Sides: []int{4, 5}, Layers: 4, Ms: []int{1, 2, 4, 8, 16, 32}, Seed: 6}
}

// ExperimentFig10 evolves a random quantum circuit exactly on an n-by-n
// PEPS, computes one output amplitude with BMPS and IBMPS at varying
// contraction bond dimension m, and reports the relative error against
// exact contraction (paper Figure 10). The reproduction targets: error
// drops to near machine epsilon above an n-dependent threshold, the
// threshold grows with lattice size, and IBMPS tracks BMPS (implicit
// randomized SVD adds no error).
func ExperimentFig10(w io.Writer, cfg Fig10Config) {
	fmt.Fprintf(w, "Figure 10: RQC amplitude relative error, %d layers (initial bond %d)\n\n",
		cfg.Layers, initialBond(cfg.Layers))
	eng := backend.NewDense()
	t := NewTable("n", "m", "err_bmps", "err_ibmps")
	for _, n := range cfg.Sides {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		circ := rqc.Generate(rng, n, n, cfg.Layers)
		state := peps.ComputationalZeros(eng, n, n)
		opts := peps.UpdateOptions{Rank: 0, Method: peps.UpdateQR}
		for _, g := range circ.Gates {
			state.ApplyGate(g, opts)
		}
		bits := rqc.RandomBits(rng, n*n)
		proj := state.Project(bits)
		exact := proj.ContractScalar(peps.Exact{})
		for _, m := range cfg.Ms {
			eb := peps.RelativeError(proj.ContractScalar(peps.BMPS{M: m, Strategy: explicitStrategy()}), exact)
			ib := peps.RelativeError(proj.ContractScalar(peps.BMPS{M: m, Strategy: implicitStrategy(cfg.Seed + int64(100*n+m))}), exact)
			t.Add(n, m, eb, ib)
		}
	}
	t.Print(w)
	fmt.Fprintln(w, "\npaper shape: error collapses to ~machine epsilon above an n-dependent m")
	fmt.Fprintln(w, "threshold; IBMPS overlaps BMPS (randomized SVD adds no error).")
}

// initialBond returns the maximum bond dimension after `layers` RQC
// layers: iSWAP has operator Schmidt rank 4 and each bond pattern fires
// every 4 layers, so bonds reach 4^ceil(layers/4).
func initialBond(layers int) int {
	b := 1
	for i := 0; i < (layers+3)/4; i++ {
		b *= 4
	}
	return b
}
