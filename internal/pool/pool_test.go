package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestForCoversRange checks every index in [0, n) is visited exactly
// once, across a spread of sizes, grains, and worker counts.
func TestForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		SetWorkers(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, grain := range []int{0, 1, 3, 64, 10000} {
				visits := make([]int32, n)
				For(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo > hi {
						t.Errorf("workers=%d n=%d grain=%d: chunk [%d,%d) out of range", workers, n, grain, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times", workers, n, grain, i, v)
					}
				}
			}
		}
	}
	SetWorkers(0)
}

// TestForGrainFloor checks chunks are never smaller than the grain
// (except possibly the remainder split over the chunk count).
func TestForGrainFloor(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	const n, grain = 100, 40
	var chunks int32
	For(n, grain, func(lo, hi int) { atomic.AddInt32(&chunks, 1) })
	// ceil(100/40) = 3 chunks at most.
	if c := atomic.LoadInt32(&chunks); c > 3 {
		t.Fatalf("grain %d over %d indices produced %d chunks", grain, n, c)
	}
}

// TestConcurrentFor hammers the pool from many goroutines at once; the
// full-queue fallback must keep every call correct.
func TestConcurrentFor(t *testing.T) {
	SetWorkers(2)
	defer SetWorkers(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				var sum int64
				For(100, 7, func(lo, hi int) {
					var local int64
					for i := lo; i < hi; i++ {
						local += int64(i)
					}
					atomic.AddInt64(&sum, local)
				})
				if sum != 4950 {
					t.Errorf("sum = %d, want 4950", sum)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSetWorkersResize cycles the pool size and confirms work still
// completes afterwards.
func TestSetWorkersResize(t *testing.T) {
	for _, n := range []int{1, 3, 1, 0} {
		SetWorkers(n)
		var count int32
		For(10, 1, func(lo, hi int) { atomic.AddInt32(&count, int32(hi-lo)) })
		if count != 10 {
			t.Fatalf("after SetWorkers(%d): covered %d of 10 indices", n, count)
		}
	}
}

// TestParseWorkers covers the KOALA_WORKERS / -workers validation shared
// with cliutil: empty means unset, garbage and non-positive values are
// rejected with a reason instead of flowing into the worker budget.
func TestParseWorkers(t *testing.T) {
	cases := []struct {
		in  string
		n   int
		bad bool
	}{
		{"", 0, false},
		{"8", 8, false},
		{"1", 1, false},
		{"0", 0, true},
		{"-4", 0, true},
		{"eight", 0, true},
		{"3.5", 0, true},
		{" 2", 0, true},
	}
	for _, c := range cases {
		n, bad := ParseWorkers(c.in)
		if n != c.n || (bad != "") != c.bad {
			t.Errorf("ParseWorkers(%q) = (%d, %q), want n=%d bad=%v", c.in, n, bad, c.n, c.bad)
		}
	}
}
