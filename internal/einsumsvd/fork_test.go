package einsumsvd

import (
	"math/rand"
	"strings"
	"testing"

	"gokoala/internal/backend"
	"gokoala/internal/tensor"
)

func TestForkExplicitCopies(t *testing.T) {
	sts := Fork(Explicit{Mode: SigmaBoth}, 3)
	if len(sts) != 3 {
		t.Fatalf("len = %d, want 3", len(sts))
	}
	for i, s := range sts {
		e, ok := s.(Explicit)
		if !ok || e.Mode != SigmaBoth {
			t.Fatalf("fork %d = %#v, want Explicit{SigmaBoth}", i, s)
		}
	}
}

func TestForkImplicitRandDeterministic(t *testing.T) {
	// Forking from identically seeded parents yields identical per-task
	// streams, independent of how the forks are later scheduled.
	draw := func() [][]int64 {
		parent := ImplicitRand{NIter: 2, Oversample: 3, Rng: rand.New(rand.NewSource(7))}
		sts := Fork(parent, 4)
		out := make([][]int64, len(sts))
		for i, s := range sts {
			ir := s.(ImplicitRand)
			if ir.NIter != 2 || ir.Oversample != 3 {
				t.Fatalf("fork %d lost parameters: %#v", i, ir)
			}
			if ir.Rng == parent.Rng {
				t.Fatalf("fork %d shares the parent Rng", i)
			}
			for j := 0; j < 5; j++ {
				out[i] = append(out[i], ir.Rng.Int63())
			}
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("fork %d draw %d differs between runs: %d vs %d", i, j, a[i][j], b[i][j])
			}
		}
	}
	// Distinct tasks get distinct streams.
	if a[0][0] == a[1][0] && a[0][1] == a[1][1] {
		t.Fatal("forks 0 and 1 produced the same stream")
	}
}

func TestForkUnknownStrategyPanics(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "einsumsvd.unknownStrategy") {
			t.Fatalf("Fork(unknown) panic = %q, want one naming the strategy type", msg)
		}
	}()
	Fork(unknownStrategy{}, 2)
}

type unknownStrategy struct{}

func (unknownStrategy) Name() string { return "unknown" }
func (unknownStrategy) Factor(eng backend.Engine, spec string, rank int, ops ...*tensor.Dense) (*tensor.Dense, *tensor.Dense, []float64, error) {
	return nil, nil, nil, nil
}
