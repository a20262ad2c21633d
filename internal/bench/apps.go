package bench

import (
	"fmt"
	"io"
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/ite"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/statevector"
	"gokoala/internal/vqe"
)

// Fig13Config controls the ITE application study.
type Fig13Config struct {
	Rows, Cols   int
	Tau          float64
	Steps        int
	Bonds        []int
	MeasureEvery int
	Seed         int64
}

// DefaultFig13Config mirrors paper Figure 13 (4x4 J1-J2, 150 steps,
// r = 1..10) at reduced scale: r = 1..3 with 60 steps on the 4x4 lattice.
func DefaultFig13Config() Fig13Config {
	return Fig13Config{Rows: 4, Cols: 4, Tau: 0.05, Steps: 60, Bonds: []int{1, 2, 3}, MeasureEvery: 10, Seed: 9}
}

// ExperimentFig13a reproduces paper Figure 13a: PEPS ITE energy per site
// at each measurement step for the 4x4 J1-J2 model, for small bond
// dimensions with m = r^2 and m = r, next to the state-vector TEBD
// reference (same Trotterization, exact amplitudes).
func ExperimentFig13a(w io.Writer, cfg Fig13Config) {
	obs := quantum.J1J2Heisenberg(cfg.Rows, cfg.Cols, quantum.PaperJ1J2Params())
	n := cfg.Rows * cfg.Cols
	fmt.Fprintf(w, "Figure 13a: ITE on the %dx%d J1-J2 model, tau=%g\n\n", cfg.Rows, cfg.Cols, cfg.Tau)

	svTrace := statevector.ITE(obs, n, cfg.Tau, cfg.Steps)
	t := NewTable("series", "step", "energy_per_site")
	for s := cfg.MeasureEvery; s <= cfg.Steps; s += cfg.MeasureEvery {
		t.Add("state-vector", s, svTrace[s-1]/float64(n))
	}
	eng := backend.NewDense()
	for _, r := range cfg.Bonds {
		for _, mMode := range []string{"m=r^2", "m=r"} {
			m := r * r
			if mMode == "m=r" {
				m = r
			}
			if m < 2 {
				m = 2
			}
			state := ite.PlusState(peps.ComputationalZeros(eng, cfg.Rows, cfg.Cols))
			res := ite.Evolve(state, obs, ite.Options{
				Tau: cfg.Tau, Steps: cfg.Steps, EvolutionRank: r, ContractionRank: m,
				Strategy: implicitStrategy(cfg.Seed + int64(r)), MeasureEvery: cfg.MeasureEvery,
				UseCache: true,
			})
			for i, e := range res.Energies {
				t.Add(fmt.Sprintf("r=%d %s", r, mMode), res.MeasuredAt[i], e)
			}
		}
	}
	t.Print(w)
	fmt.Fprintln(w, "\npaper shape: energies fall with steps; larger r tracks the state-vector")
	fmt.Fprintln(w, "curve more closely; m=r is nearly as accurate as m=r^2 on this model.")
}

// ExperimentFig13b reproduces paper Figure 13b: the final ITE energy per
// site after all steps, as the evolution bond dimension grows, with
// m = r and m = r^2, against the exact ground state (Lanczos for up to 16
// sites).
func ExperimentFig13b(w io.Writer, cfg Fig13Config) {
	obs := quantum.J1J2Heisenberg(cfg.Rows, cfg.Cols, quantum.PaperJ1J2Params())
	n := cfg.Rows * cfg.Cols
	fmt.Fprintf(w, "Figure 13b: final ITE energy per site after %d steps, %dx%d J1-J2\n\n", cfg.Steps, cfg.Rows, cfg.Cols)

	rng := rand.New(rand.NewSource(cfg.Seed))
	exactE, _ := statevector.GroundState(obs, n, rng)
	svTrace := statevector.ITE(obs, n, cfg.Tau, cfg.Steps)

	eng := backend.NewDense()
	t := NewTable("r", "m_mode", "energy_per_site", "gap_to_exact")
	t.Add(0, "exact-ground", exactE/float64(n), 0.0)
	t.Add(0, "state-vector-ite", svTrace[cfg.Steps-1]/float64(n), svTrace[cfg.Steps-1]/float64(n)-exactE/float64(n))
	for _, r := range cfg.Bonds {
		for _, mMode := range []string{"m=r^2", "m=r"} {
			m := r * r
			if mMode == "m=r" {
				m = r
			}
			if m < 2 {
				m = 2
			}
			state := ite.PlusState(peps.ComputationalZeros(eng, cfg.Rows, cfg.Cols))
			res := ite.Evolve(state, obs, ite.Options{
				Tau: cfg.Tau, Steps: cfg.Steps, EvolutionRank: r, ContractionRank: m,
				Strategy: implicitStrategy(cfg.Seed + int64(10*r)), MeasureEvery: cfg.Steps,
				UseCache: true,
			})
			e := res.Energies[len(res.Energies)-1]
			t.Add(r, mMode, e, e-exactE/float64(n))
		}
	}
	t.Print(w)
	fmt.Fprintln(w, "\npaper shape: the energy approaches the reference as r grows; m=r and m=r^2")
	fmt.Fprintln(w, "reach similar accuracy at much different cost.")
}

// Fig14Config controls the VQE application study.
type Fig14Config struct {
	Rows, Cols int
	Layers     int
	Bonds      []int
	MaxIter    int
	Seed       int64
}

// DefaultFig14Config mirrors paper Figure 14 (3x3 TFI, r = 1..4). The
// paper's SLSQP uses gradients; the derivative-free Nelder-Mead simplex
// needs a few hundred iterations on the 18-parameter landscape to reach
// the same energies, so the iteration axis is scaled accordingly.
func DefaultFig14Config() Fig14Config {
	return Fig14Config{Rows: 3, Cols: 3, Layers: 2, Bonds: []int{1, 2}, MaxIter: 150, Seed: 10}
}

// ExperimentFig14 reproduces paper Figure 14: VQE on the ferromagnetic
// transverse-field Ising model (Jz = -1, hx = -3.5) with the layered
// Ry+CNOT ansatz, comparing PEPS simulations at several bond dimensions
// against the state-vector objective and the exact ground state energy
// (paper values: -3.5 floor at r=1, improving toward the state vector's
// -3.57049, exact -3.60024 per site).
func ExperimentFig14(w io.Writer, cfg Fig14Config) {
	obs := quantum.TransverseFieldIsing(cfg.Rows, cfg.Cols, -1, -3.5)
	n := cfg.Rows * cfg.Cols
	fmt.Fprintf(w, "Figure 14: VQE on the %dx%d TFI model (Jz=-1, hx=-3.5), %d ansatz layers\n\n", cfg.Rows, cfg.Cols, cfg.Layers)

	rng := rand.New(rand.NewSource(cfg.Seed))
	exactE, _ := statevector.GroundState(obs, n, rng)
	fmt.Fprintf(w, "exact ground state energy per site: %.5f (paper: -3.60024)\n\n", exactE/float64(n))

	a := vqe.Ansatz{Rows: cfg.Rows, Cols: cfg.Cols, Layers: cfg.Layers}
	t := NewTable("series", "iteration", "best_energy_per_site")
	final := NewTable("series", "objective_per_site", "true_energy_per_site", "gap_to_exact")

	runOne := func(name string, rank int) {
		res := vqe.Run(a, obs, vqe.Options{
			Rank: rank, MaxIter: cfg.MaxIter, Seed: cfg.Seed, UseCache: true,
		})
		for i, e := range res.History {
			if (i+1)%25 == 0 || i == len(res.History)-1 {
				t.Add(name, i+1, e)
			}
		}
		// Re-evaluate the optimized circuit exactly: for truncated PEPS
		// objectives the optimizer can exploit approximation error (the
		// effect behind the paper's anomalous r=2 value), so the true
		// energy of the optimized parameters is the honest figure.
		trueE := vqe.EnergyStateVector(a, obs, res.Theta)
		final.Add(name, res.EnergyPerSite, trueE, trueE-exactE/float64(n))
	}
	runOne("state-vector", 0)
	for _, r := range cfg.Bonds {
		runOne(fmt.Sprintf("peps r=%d", r), r)
	}
	t.Print(w)
	fmt.Fprintln(w)
	final.Print(w)
	fmt.Fprintln(w, "\nreading the final table: objective_per_site is the energy of the truncated")
	fmt.Fprintln(w, "PEPS simulation, the quantity the paper reports (r=1 saturates exactly at the")
	fmt.Fprintln(w, "product-state floor -3.5; r=2 is anomalous because the truncated objective")
	fmt.Fprintln(w, "misleads the optimizer, the effect behind the paper's -2.35 outlier at r=2).")
	fmt.Fprintln(w, "true_energy_per_site re-evaluates the same circuit parameters exactly: a")
	fmt.Fprintln(w, "truncated simulation optimizes its own truncated state, not the circuit, so")
	fmt.Fprintln(w, "low-rank objectives do not transfer; only the true energies are variational")
	fmt.Fprintln(w, "(they stay above the exact ground state).")
}
