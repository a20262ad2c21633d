package bench

import (
	"fmt"
	"io"
	"math/rand"

	"gokoala/internal/backend"
	"gokoala/internal/peps"
	"gokoala/internal/quantum"
	"gokoala/internal/tensor"
)

// Fig9Config controls the expectation-value caching benchmark.
type Fig9Config struct {
	Sides []int // square lattice side lengths
	Bond  int   // PEPS bond dimension (paper uses 4)
	M     int   // contraction bond dimension
	Seed  int64
}

// DefaultFig9Config reproduces paper Figure 9 at reduced scale: side
// lengths 2..6 with bond dimension 2 (the paper's 2..12 at bond 4 follows
// the same curve, just bigger).
func DefaultFig9Config() Fig9Config {
	return Fig9Config{Sides: []int{2, 3, 4, 5, 6}, Bond: 2, M: 4, Seed: 5}
}

// fullNeighborObservable builds the Figure 9 expectation operator: a
// one-site operator on every site and a two-site operator on every pair
// of adjacent sites.
func fullNeighborObservable(n int) *quantum.Observable {
	o := quantum.NewObservable()
	zz := tensor.Kron(quantum.Z(), quantum.Z())
	site := func(r, c int) int { return r*n + c }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			o.AddTerm(1, quantum.X(), site(r, c))
			if c+1 < n {
				o.AddTerm(1, zz, site(r, c), site(r, c+1))
			}
			if r+1 < n {
				o.AddTerm(1, zz, site(r, c), site(r+1, c))
			}
		}
	}
	return o
}

// ExperimentFig9 measures the expectation-value evaluation time with and
// without the intermediate caching of paper section IV-B, as the lattice
// side grows (paper Figure 9). The speedup grows with the side length
// because caching replaces one full two-layer contraction per term with a
// strip contraction.
func ExperimentFig9(w io.Writer, cfg Fig9Config) {
	fmt.Fprintf(w, "Figure 9: expectation value with/without caching, bond %d, m=%d\n\n", cfg.Bond, cfg.M)
	eng := backend.NewDense()
	t := NewTable("side", "terms", "cached_s", "uncached_s", "speedup")
	for _, n := range cfg.Sides {
		rng := rand.New(rand.NewSource(cfg.Seed))
		state := peps.Random(eng, rng, n, n, 2, cfg.Bond)
		obs := fullNeighborObservable(n)
		var vc, vd complex128
		cached := TimeIt(func() {
			vc = state.Expectation(obs, peps.ExpectationOptions{M: cfg.M, Strategy: implicitStrategy(cfg.Seed + int64(n)), UseCache: true})
		})
		uncached := TimeIt(func() {
			vd = state.Expectation(obs, peps.ExpectationOptions{M: cfg.M, Strategy: implicitStrategy(cfg.Seed + int64(n)), UseCache: false})
		})
		_ = vc
		_ = vd
		t.Add(n, len(obs.Terms), cached, uncached, uncached/cached)
	}
	t.Print(w)
	fmt.Fprintln(w, "\npaper shape: the caching speedup grows with the number of PEPS sites")
	fmt.Fprintln(w, "(the paper reaches 4.5x at side 12 with bond 4).")
}
