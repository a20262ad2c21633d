package backend

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"gokoala/internal/dist"
	"gokoala/internal/health"
	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// illConditionedMPS returns a boundary-MPS-like rank-3 tensor whose
// (leftAxes=2) matricization has condition number ~1e8: the second column
// is the first plus 1e-8 noise, so kappa^2 ~ 1e16 sits past the Gram
// threshold of 1e12.
func illConditionedMPS(rng *rand.Rand) *tensor.Dense {
	const rows, cols = 12, 2
	m := tensor.New(rows, cols)
	for i := 0; i < rows; i++ {
		base := complex(2*rng.Float64()-1, 2*rng.Float64()-1)
		m.Set(base, i, 0)
		m.Set(base+complex(1e-8*(2*rng.Float64()-1), 0), i, 1)
	}
	return m.Reshape(4, 3, 2)
}

func TestDistGramQRSplitFallsBackOnIllConditioning(t *testing.T) {
	health.ResetCounters()
	obs.Enable() // zero sinks: counters only
	defer obs.Disable()

	tn := illConditionedMPS(rand.New(rand.NewSource(31)))
	d := NewDist(dist.NewGrid(dist.Stampede2(16)), true)
	q, r := d.QRSplit(tn, 2)

	if got := health.GramFallbacks(); got != 1 {
		t.Fatalf("GramFallbacks = %d, want exactly 1", got)
	}
	if got := obs.MetricValueOf("health.gram_fallbacks"); got != 1 {
		t.Fatalf("obs health.gram_fallbacks = %g, want 1", got)
	}

	// The degraded factorization must match the dense reference within
	// 1e-8 — the Gram path would have lost the small direction entirely.
	qd, rd := NewDense().QRSplit(tn, 2)
	if !tensor.AllClose(q, qd, 1e-8, 1e-8) || !tensor.AllClose(r, rd, 1e-8, 1e-8) {
		t.Fatal("fallback QRSplit differs from the dense reference")
	}
	// And reconstruct the input: sum_k q[a,b,k] r[k,c] = t[a,b,c].
	recon := NewDense().Einsum("abk,kc->abc", q, r)
	if !tensor.AllClose(recon, tn, 1e-8, 1e-8) {
		t.Fatal("fallback QR does not reconstruct the input within 1e-8")
	}

	// A well-conditioned tensor stays on the Gram path.
	health.ResetCounters()
	good := tensor.Rand(rand.New(rand.NewSource(32)), 4, 3, 2)
	d.QRSplit(good, 2)
	if got := health.GramFallbacks(); got != 0 {
		t.Fatalf("well-conditioned QRSplit fell back %d times", got)
	}
}

func TestDistGramOrthFallsBackOnIllConditioning(t *testing.T) {
	health.ResetCounters()
	rng := rand.New(rand.NewSource(33))
	x := illConditionedMPS(rng).Reshape(12, 2)
	d := NewDist(dist.NewGrid(dist.Stampede2(16)), true)
	q := d.Orth(x)
	if got := health.GramFallbacks(); got != 1 {
		t.Fatalf("GramFallbacks = %d, want exactly 1", got)
	}
	// Orthonormality the Gram path cannot deliver here.
	g := tensor.MatMul(q.Conj().Transpose(1, 0), q)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(g.At(i, j)-want) > 1e-10 {
				t.Fatalf("fallback Q not orthonormal: G[%d][%d] = %v", i, j, g.At(i, j))
			}
		}
	}
}

func TestInstrumentedEinsumDetectsInjectedNaNExactlyOnce(t *testing.T) {
	defer func() {
		health.SetPolicy(health.PolicyOff)
		health.ResetCounters()
	}()
	health.ResetCounters()
	health.SetPolicy(health.PolicyCount)
	obs.Enable()
	defer obs.Disable()

	eng := NewDense()
	rng := rand.New(rand.NewSource(34))
	a := tensor.Rand(rng, 4, 4)
	b := tensor.Rand(rng, 4, 4)
	inj := health.NewInjector(35)
	if idx := inj.FlipNaN(a); idx < 0 {
		t.Fatal("injector failed to flip an element")
	}
	out := eng.Einsum("ij,jk->ik", a, b)
	if health.ScanSlice(out.Data()) < 0 {
		t.Fatal("NaN did not propagate to the einsum output")
	}
	if got := health.NaNDetected(); got != 1 {
		t.Fatalf("NaNDetected = %d after one poisoned einsum, want exactly 1", got)
	}
	if got := obs.MetricValueOf("health.nan_detected"); got != 1 {
		t.Fatalf("obs health.nan_detected = %g, want 1", got)
	}

	// A clean contraction afterwards adds nothing.
	eng.Einsum("ij,jk->ik", b, b)
	if got := health.NaNDetected(); got != 1 {
		t.Fatalf("clean einsum changed the count to %d", got)
	}
}

func TestInstrumentedEinsumErrorPolicyPanics(t *testing.T) {
	defer func() {
		health.SetPolicy(health.PolicyOff)
		health.ResetCounters()
	}()
	health.ResetCounters()
	health.SetPolicy(health.PolicyError)

	eng := NewDense()
	rng := rand.New(rand.NewSource(36))
	a := tensor.Rand(rng, 3, 3)
	health.NewInjector(37).FlipNaN(a)
	defer func() {
		ne, ok := recover().(*health.NumError)
		if !ok {
			t.Fatal("PolicyError einsum did not panic with *health.NumError")
		}
		if ne.Stage != "backend.einsum" {
			t.Fatalf("NumError stage = %q, want backend.einsum", ne.Stage)
		}
	}()
	eng.Einsum("ij,jk->ik", a, a)
	t.Fatal("poisoned einsum returned without panicking")
}
