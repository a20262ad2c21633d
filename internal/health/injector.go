package health

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gokoala/internal/tensor"
)

// Injector produces deterministic, seeded faults so tests can prove each
// degradation path engages: NaN elements in tensors (exercising the
// policy guards) and checkpoint write failures (exercising atomic-write
// crash safety). All methods are reproducible for a given seed and call
// sequence.
type Injector struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewInjector returns an injector whose fault choices derive only from
// seed.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// FlipNaN sets one seeded-random element of t to NaN and returns its flat
// index (-1 for an empty tensor).
func (in *Injector) FlipNaN(t *tensor.Dense) int {
	d := t.Data()
	if len(d) == 0 {
		return -1
	}
	in.mu.Lock()
	i := in.rng.Intn(len(d))
	in.mu.Unlock()
	d[i] = complex(math.NaN(), 0)
	return i
}

// FailCheckpoints arms the checkpoint write-fault hook so the next n
// checkpoint writes fail with a deterministic error, after which writes
// succeed again.
func (in *Injector) FailCheckpoints(n int) {
	if n <= 0 {
		SetCheckpointFault(nil)
		return
	}
	var mu sync.Mutex
	remaining := n
	SetCheckpointFault(func() error {
		mu.Lock()
		defer mu.Unlock()
		if remaining <= 0 {
			return nil
		}
		remaining--
		return fmt.Errorf("health: injected checkpoint write fault (%d remaining)", remaining)
	})
}
