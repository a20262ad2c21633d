package bench

import (
	"fmt"
	"io"
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/peps"
)

// Table2Config controls the empirical complexity study.
type Table2Config struct {
	N     int   // lattice side
	Bonds []int // PEPS (state) bond dimensions b; one-layer bond is b^2
	Ms    []int // truncation bond dimensions at fixed bond
	FixB  int   // bond used for the m sweep
	Seed  int64
}

// DefaultTable2Config returns a single-core-friendly configuration.
func DefaultTable2Config() Table2Config {
	// FixB = 3 keeps the m sweep inside the scaling regime (the merged
	// one-layer bond is 9, so boundary ranks saturate only beyond m = 81).
	return Table2Config{N: 4, Bonds: []int{2, 3, 4}, Ms: []int{4, 8, 16, 32}, FixB: 3, Seed: 1}
}

// ExperimentTable2 reproduces paper Table II empirically: it measures the
// complex-flop count of computing <P|P> with BMPS (explicit SVD on the
// merged one-layer network), IBMPS (implicit randomized SVD, merged), and
// two-layer IBMPS (layers kept implicit), sweeping the truncation bond m
// at fixed state bond b and sweeping b at m = b^2. It reports the
// measured log-log scaling exponents next to the paper's asymptotic
// terms, and the BMPS/IBMPS flop ratios that quantify the asymptotic
// advantage.
func ExperimentTable2(w io.Writer, cfg Table2Config) {
	eng := backend.NewDense()
	rng := rand.New(rand.NewSource(cfg.Seed))

	methods := []struct {
		name string
		run  func(state *peps.PEPS, m int, seed int64) complex128
	}{
		{"bmps", func(s *peps.PEPS, m int, seed int64) complex128 {
			return s.Inner(s, peps.BMPS{M: m, Strategy: explicitStrategy()})
		}},
		{"ibmps", func(s *peps.PEPS, m int, seed int64) complex128 {
			return s.Inner(s, peps.BMPS{M: m, Strategy: implicitStrategy(seed)})
		}},
		{"2layer-ibmps", func(s *peps.PEPS, m int, seed int64) complex128 {
			return s.Inner(s, peps.TwoLayerBMPS{M: m, Strategy: implicitStrategy(seed)})
		}},
	}

	fmt.Fprintf(w, "Table II: flops of <P|P> on a %dx%d PEPS (physical dim 2)\n\n", cfg.N, cfg.N)

	// Sweep m at fixed bond.
	state := peps.Random(eng, rng, cfg.N, cfg.N, 2, cfg.FixB)
	tm := NewTable("method", "b", "m", "flops")
	flopsByMethodM := map[string][]float64{}
	for _, m := range cfg.Ms {
		for _, meth := range methods {
			fl := FlopsOf(func() { meth.run(state, m, cfg.Seed+int64(m)) })
			tm.Add(meth.name, cfg.FixB, m, fmt.Sprintf("%d", fl))
			flopsByMethodM[meth.name] = append(flopsByMethodM[meth.name], float64(fl))
		}
	}
	tm.Print(w)

	ms := make([]float64, len(cfg.Ms))
	for i, m := range cfg.Ms {
		ms[i] = float64(m)
	}
	fmt.Fprintf(w, "\nmeasured m-exponents (paper: bmps m^3 dominant, ibmps m^2..m^3, 2-layer m^2..m^3):\n")
	st := NewTable("method", "slope d log(flops)/d log(m)")
	for _, meth := range methods {
		st.Add(meth.name, logSlope(ms, flopsByMethodM[meth.name]))
	}
	st.Print(w)

	// Sweep bond with m = b^2 (the accuracy-matched setting).
	fmt.Fprintf(w, "\nbond sweep with m = b^2:\n")
	tb := NewTable("method", "b", "m", "flops", "flops/ibmps")
	flopsByMethodB := map[string][]float64{}
	for _, b := range cfg.Bonds {
		state := peps.Random(eng, rng, cfg.N, cfg.N, 2, b)
		m := b * b
		fls := make([]float64, len(methods))
		var ibmpsFl float64
		for i, meth := range methods {
			fls[i] = float64(FlopsOf(func() { meth.run(state, m, cfg.Seed+int64(b)) }))
			if meth.name == "ibmps" {
				ibmpsFl = fls[i]
			}
		}
		for i, meth := range methods {
			ratio := 0.0
			if ibmpsFl > 0 {
				ratio = fls[i] / ibmpsFl
			}
			tb.Add(meth.name, b, m, fmt.Sprintf("%.0f", fls[i]), ratio)
			flopsByMethodB[meth.name] = append(flopsByMethodB[meth.name], fls[i])
		}
	}
	tb.Print(w)

	bs := make([]float64, len(cfg.Bonds))
	for i, b := range cfg.Bonds {
		bs[i] = float64(b)
	}
	fmt.Fprintf(w, "\nmeasured b-exponents at m=b^2 (higher = worse asymptotics):\n")
	sb := NewTable("method", "slope d log(flops)/d log(b)")
	for _, meth := range methods {
		sb.Add(meth.name, logSlope(bs, flopsByMethodB[meth.name]))
	}
	sb.Print(w)
}
