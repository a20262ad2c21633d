package bench

import (
	"fmt"
	"io"
	"math"

	"gokoala/internal/backend"
	"gokoala/internal/einsum"
	"gokoala/internal/ite"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
)

// SymConfig controls the block-sparse-versus-dense ITE comparison: the
// same Trotter schedule is evolved on both backends at equal bond
// dimension and the executed GEMM flops, wall time, and state memory are
// compared.
type SymConfig struct {
	Rows, Cols      int
	Tau             float64
	Steps           int
	Rank            int
	ContractionRank int
	Seed            int64
}

// DefaultSymConfig runs both charge-conserving benchmark models (dual-
// frame TFI under Z2 parity, J1-J2 under U(1) particle number) on a 2x3
// lattice in a few seconds.
func DefaultSymConfig() SymConfig {
	return SymConfig{Rows: 2, Cols: 3, Tau: 0.05, Steps: 6, Rank: 4, ContractionRank: 8, Seed: 1}
}

// SymModelResult is the per-model record of the sym suite, emitted into
// BENCH_sym.json for regression tracking.
type SymModelResult struct {
	Model string `json:"model"`
	// Mod is the charge modulus (0 = U(1), 2 = Z2).
	Mod  int `json:"mod"`
	Rank int `json:"rank"`
	// Whole-run numeric-kernel flops and wall time per backend.
	DenseWallSeconds float64 `json:"dense_wall_seconds"`
	SymWallSeconds   float64 `json:"sym_wall_seconds"`
	DenseFlops       int64   `json:"dense_flops"`
	SymFlops         int64   `json:"sym_flops"`
	// Contraction-level accounting from einsum.SymStats: GEMM flops the
	// block-sparse contractions executed versus what dense contractions
	// of the same embedded operands would have cost. Their quotient is
	// GEMMReduction, the headline "x-fold fewer flops" figure.
	SymGEMMFlops       int64   `json:"sym_gemm_flops"`
	SymDenseEquivFlops int64   `json:"sym_dense_equiv_flops"`
	GEMMReduction      float64 `json:"gemm_reduction"`
	// Final-state memory per backend at the same bond dimension.
	DenseStateBytes int64 `json:"dense_state_bytes"`
	SymStateBytes   int64 `json:"sym_state_bytes"`
	// Final measured energy per site on each backend; the acceptance
	// gate requires agreement within 1e-10.
	EnergyDense float64 `json:"energy_dense"`
	EnergySym   float64 `json:"energy_sym"`
	// Pass records the acceptance verdict: GEMMReduction >= 2, state
	// memory below dense, energies within 1e-10.
	Pass bool `json:"pass"`
}

// SymSuiteDetail is the sym-suite payload attached to SuiteResult.
type SymSuiteDetail struct {
	Models []SymModelResult `json:"models"`
}

// lastSymDetail hands the most recent ExperimentSym detail to
// CollectSuiteMetrics (the suite runner's io.Writer-only callback cannot
// return it directly).
var lastSymDetail *SymSuiteDetail

// TakeSymDetail returns and clears the detail recorded by the last
// ExperimentSym run, nil when none ran since the last take.
func TakeSymDetail() *SymSuiteDetail {
	d := lastSymDetail
	lastSymDetail = nil
	return d
}

func densePEPSBytes(p *peps.PEPS) int64 {
	var b int64
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			b += int64(16 * len(p.Site(r, c).Data()))
		}
	}
	return b
}

// ExperimentSym evolves each charge-conserving benchmark model with the
// dense and the block-sparse backend from the same initial state and the
// same Trotter schedule, then prints the flop, wall-clock, and memory
// comparison plus a per-model acceptance verdict.
func ExperimentSym(w io.Writer, cfg SymConfig) {
	eng := backend.NewDense()
	se, ok := backend.SymOf(eng)
	if !ok {
		panic("bench: dense engine must expose block-sparse kernels")
	}
	fmt.Fprintf(w, "Block-sparse vs dense ITE on %dx%d, r=%d, m=%d, %d steps of tau=%g\n\n",
		cfg.Rows, cfg.Cols, cfg.Rank, cfg.ContractionRank, cfg.Steps, cfg.Tau)

	type model struct {
		name       string
		mod        int
		rows, cols int
		obs        *quantum.Observable
		bits       []int
	}
	// The J1-J2 comparison runs on 2x2, where rank 4 is the exact bond
	// dimension: the Neel-start spectrum is degenerate, and with active
	// truncation the two backends may keep different (equally valid)
	// subspaces, which would turn a tie-break difference into an energy
	// gap. The TFI spectrum has no such ties, so it exercises active
	// truncation on the full lattice.
	models := []model{
		{"tfi-dual-z2", 2, cfg.Rows, cfg.Cols, quantum.TransverseFieldIsingDual(cfg.Rows, cfg.Cols, -1, -3.5), nil},
		{"j1j2-u1", 0, 2, 2, quantum.J1J2HeisenbergU1(2, 2, quantum.PaperJ1J2ParamsU1()), quantum.NeelBits(2, 2)},
	}

	opts := ite.Options{
		Tau: cfg.Tau, Steps: cfg.Steps, EvolutionRank: cfg.Rank,
		ContractionRank: cfg.ContractionRank, Strategy: explicitStrategy(),
		MeasureEvery: cfg.Steps, Seed: cfg.Seed,
	}

	detail := &SymSuiteDetail{}
	t := NewTable("model", "backend", "wall_s", "run_flops", "gemm_flops", "state_bytes", "energy_per_site")
	for _, m := range models {
		r := SymModelResult{Model: m.name, Mod: m.mod, Rank: cfg.Rank}

		dstate := peps.SymComputationalBasis(se, m.mod, m.rows, m.cols, m.bits).ToDense()
		var dres ite.Result
		r.DenseFlops = FlopsOf(func() {
			r.DenseWallSeconds = TimeIt(func() { dres = ite.Evolve(dstate, m.obs, opts) })
		})
		r.DenseStateBytes = densePEPSBytes(dres.Final)
		r.EnergyDense = dres.Energies[len(dres.Energies)-1]

		sstate := peps.SymComputationalBasis(se, m.mod, m.rows, m.cols, m.bits)
		_, _, f0, d0 := einsum.SymStats()
		var sres ite.Result
		r.SymFlops = FlopsOf(func() {
			r.SymWallSeconds = TimeIt(func() { sres = ite.EvolveSym(sstate, m.obs, opts) })
		})
		_, _, f1, d1 := einsum.SymStats()
		if sres.FellBack {
			panic(fmt.Sprintf("bench: %s fell back to dense — its gates must conserve charge", m.name))
		}
		r.SymGEMMFlops = f1 - f0
		r.SymDenseEquivFlops = d1 - d0
		if r.SymGEMMFlops > 0 {
			r.GEMMReduction = float64(r.SymDenseEquivFlops) / float64(r.SymGEMMFlops)
		}
		r.SymStateBytes = sres.FinalSym.StateBytes()
		r.EnergySym = sres.Energies[len(sres.Energies)-1]

		r.Pass = r.GEMMReduction >= 2 &&
			r.SymStateBytes < r.DenseStateBytes &&
			math.Abs(r.EnergySym-r.EnergyDense) <= 1e-10
		detail.Models = append(detail.Models, r)

		t.Add(m.name, "dense", r.DenseWallSeconds, r.DenseFlops, "-", r.DenseStateBytes, r.EnergyDense)
		t.Add(m.name, "block-sparse", r.SymWallSeconds, r.SymFlops, r.SymGEMMFlops, r.SymStateBytes, r.EnergySym)
	}
	t.Print(w)
	fmt.Fprintln(w)
	for _, r := range detail.Models {
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "sym acceptance %s: gemm reduction %.2fx (%d vs dense-equiv %d), state bytes %.2fx, |dE| %.2e: %s\n",
			r.Model, r.GEMMReduction, r.SymGEMMFlops, r.SymDenseEquivFlops,
			float64(r.SymStateBytes)/float64(r.DenseStateBytes),
			math.Abs(r.EnergySym-r.EnergyDense), verdict)
	}
	fmt.Fprintln(w, "\npaper shape: charge conservation empties most sectors, so block-by-block")
	fmt.Fprintln(w, "contraction executes a fraction of the dense GEMM flops and stores a")
	fmt.Fprintln(w, "fraction of the dense state at the same bond dimension and accuracy.")
	lastSymDetail = detail
}
