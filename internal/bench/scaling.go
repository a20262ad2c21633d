package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/dist"
	"gokoala/internal/peps"
)

// Fig11Config controls the strong-scaling study.
type Fig11Config struct {
	N          int
	SmallBond  int // problem sized for ~1 node
	LargeBond  int // problem sized for ~16 nodes
	RankCounts []int
	M          int // contraction bond for the contraction series
	Seed       int64
}

// DefaultFig11Config mirrors paper Figure 11 at reduced scale.
func DefaultFig11Config() Fig11Config {
	return Fig11Config{
		N: 6, SmallBond: 4, LargeBond: 8,
		RankCounts: []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096},
		M:          8, Seed: 7,
	}
}

// runOnGrid executes work on a fresh grid of the given rank count and
// returns the modeled seconds of the metered SPMD execution.
func runOnGrid(ranks int, useGram bool, work func(eng backend.Engine)) dist.Stats {
	grid := dist.NewGrid(dist.Stampede2(ranks)).SetLabel(fmt.Sprintf("ranks-%d", ranks))
	eng := backend.NewDist(grid, useGram)
	work(eng)
	return grid.Snapshot()
}

// ExperimentFig11 reproduces the strong-scaling study (paper Figure 11):
// one layer of TEBD operators (evolution) and an IBMPS contraction of a
// PEPS without physical indices, at a smaller and a larger problem size,
// across rank counts. The modeled time comes from the alpha-beta-gamma
// machine model applied to the measured communication and flop counts of
// the SPMD execution at each rank count.
func ExperimentFig11(w io.Writer, cfg Fig11Config) {
	fmt.Fprintf(w, "Figure 11: strong scaling (modeled seconds from metered SPMD execution), %dx%d PEPS\n\n", cfg.N, cfg.N)
	t := NewTable("ranks", "series", "modeled_s", "speedup_vs_first", "comm_frac")
	series := []struct {
		name string
		bond int
		work func(eng backend.Engine, bond int)
	}{
		{"evolution", cfg.SmallBond, func(eng backend.Engine, bond int) {
			evolutionWorkload(eng, cfg.Seed, cfg.N, bond, peps.UpdateOptions{Rank: bond, Method: peps.UpdateQR})()
		}},
		{"evolution-large", cfg.LargeBond, func(eng backend.Engine, bond int) {
			evolutionWorkload(eng, cfg.Seed, cfg.N, bond, peps.UpdateOptions{Rank: bond, Method: peps.UpdateQR})()
		}},
		{"contraction", cfg.SmallBond, func(eng backend.Engine, bond int) {
			rng := rand.New(rand.NewSource(cfg.Seed + 3))
			net := peps.RandomNoPhys(eng, rng, cfg.N, cfg.N, bond)
			net.ContractScalar(peps.BMPS{M: cfg.M, Strategy: implicitStrategy(cfg.Seed)})
		}},
		{"contraction-large", cfg.LargeBond, func(eng backend.Engine, bond int) {
			rng := rand.New(rand.NewSource(cfg.Seed + 4))
			net := peps.RandomNoPhys(eng, rng, cfg.N, cfg.N, bond)
			net.ContractScalar(peps.BMPS{M: 2 * cfg.M, Strategy: implicitStrategy(cfg.Seed)})
		}},
	}
	for _, s := range series {
		var first float64
		for _, ranks := range cfg.RankCounts {
			stats := runOnGrid(ranks, true, func(eng backend.Engine) { s.work(eng, s.bond) })
			secs := stats.ModeledSeconds()
			if first == 0 {
				first = secs
			}
			commFrac := 0.0
			if secs > 0 {
				commFrac = stats.CommSeconds() / secs
			}
			t.Add(ranks, s.name, secs, first/secs, commFrac)
		}
	}
	t.Print(w)
	fmt.Fprintln(w, "\npaper shape: near-linear scaling within a node, diminishing returns as the")
	fmt.Fprintln(w, "communication fraction grows; the larger problem scales further out.")
}

// Fig12Config controls the weak-scaling study.
type Fig12Config struct {
	N          int
	RankCounts []int
	BaseBond   int // r at the first rank count; r scales as ranks^(1/4)
	BaseM      int
	Seed       int64
}

// DefaultFig12Config mirrors paper Figure 12 (ranks 64..4096 with
// r = 70..280, m = 80..320) at reduced bond dimensions.
func DefaultFig12Config() Fig12Config {
	return Fig12Config{
		N:          6,
		RankCounts: []int{64, 128, 256, 512, 1024, 2048, 4096},
		BaseBond:   4,
		BaseM:      6,
		Seed:       8,
	}
}

// ExperimentFig12 reproduces the weak-scaling study (paper Figure 12):
// bond dimensions grow as ranks^(1/4) so the memory per node stays
// constant (site tensors hold r^4 elements), and the figure of merit is
// sustained Gflop/s per core under the machine model.
//
// Two throughput columns are reported. "gflops_per_core" evaluates the
// machine model at our scaled-down bond dimensions, where the arithmetic
// intensity (flops per byte moved) is r_paper/r_ours times lower than in
// the paper's runs, so communication shows through more. The
// "paper_scale" column evaluates the same measured operation counts with
// flops, bytes, and local-factorization work rescaled to the paper's
// bond dimensions (r = 70..280, m = 80..320) using the kernels' known
// growth laws (GEMM flops ~ r^5 evolution / r^6 contraction at m ~ r,
// moved bytes ~ r^4, local factorizations ~ r^3); this is where the
// paper's flat sustained-throughput claim is checked.
func ExperimentFig12(w io.Writer, cfg Fig12Config) {
	fmt.Fprintln(w, "Figure 12: weak scaling, bond dimension grows as ranks^(1/4)")
	fmt.Fprintln(w)
	t := NewTable("ranks", "series", "r", "m", "modeled_s", "gflops_per_core", "paper_scale_gflops_per_core")
	base := float64(cfg.RankCounts[0])
	for _, series := range []string{"evolution", "contraction"} {
		flopExp := 5.0
		if series == "contraction" {
			flopExp = 6.0
		}
		for _, ranks := range cfg.RankCounts {
			scale := math.Pow(float64(ranks)/base, 0.25)
			r := int(math.Round(float64(cfg.BaseBond) * scale))
			m := int(math.Round(float64(cfg.BaseM) * scale))
			var stats dist.Stats
			machine := dist.Stampede2(ranks)
			if series == "evolution" {
				stats = runOnGrid(ranks, true, func(eng backend.Engine) {
					evolutionWorkload(eng, cfg.Seed, cfg.N, r, peps.UpdateOptions{Rank: r, Method: peps.UpdateQR})()
				})
			} else {
				stats = runOnGrid(ranks, true, func(eng backend.Engine) {
					rng := rand.New(rand.NewSource(cfg.Seed + 9))
					net := peps.RandomNoPhys(eng, rng, cfg.N, cfg.N, r)
					net.ContractScalar(peps.BMPS{M: m, Strategy: implicitStrategy(cfg.Seed)})
				})
			}
			secs := stats.ModeledSeconds()
			flops := float64(stats.ParallelFlops + stats.SequentialFlops)
			// One complex fused multiply-add is 8 real flops.
			gflopsPerCore := flops * 8 / secs / float64(ranks) / 1e9

			// Rescale the measured counts to the paper's bond dimension at
			// this rank count, per bandwidth class: GEMM-bound traffic
			// scales as flops/sqrt(memory) ~ r^(flopExp-2), full-tensor
			// moves as r^4, Gram-path small collectives as r^2.
			rPaper := 70 * scale
			ratio := rPaper / float64(r)
			parF := float64(stats.ParallelFlops) * math.Pow(ratio, flopExp)
			seqF := float64(stats.SequentialFlops) * math.Pow(ratio, 3)
			bwS := stats.BWGemmSeconds*math.Pow(ratio, flopExp-2) +
				stats.BWBigSeconds*math.Pow(ratio, 4) +
				stats.BWSmallSeconds*math.Pow(ratio, 2)
			paperSecs := stats.CommLatencySeconds + bwS +
				machine.Gamma*parF/float64(ranks) + machine.Gamma*seqF
			paperGf := (parF + seqF) * 8 / paperSecs / float64(ranks) / 1e9

			t.Add(ranks, series, r, m, secs, gflopsPerCore, paperGf)
		}
	}
	t.Print(w)
	fmt.Fprintln(w, "\npaper shape: sustained per-core throughput holds roughly flat up to 64 nodes")
	fmt.Fprintln(w, "(4096 cores); at our reduced bond dimensions the raw column decays because the")
	fmt.Fprintln(w, "arithmetic intensity is ~(70/4)x lower, which the paper-scale column corrects.")
}
