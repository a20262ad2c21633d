package health

import (
	"math"
	"math/rand"
	"testing"

	"gokoala/internal/tensor"
)

func reset() {
	SetPolicy(PolicyOff)
	SetKappa2Max(0)
	SetCheckpointFault(nil)
	ResetCounters()
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{"": PolicyOff, "off": PolicyOff, "count": PolicyCount, "error": PolicyError}
	for s, want := range cases {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus policy")
	}
	for _, p := range []Policy{PolicyOff, PolicyCount, PolicyError} {
		back, err := ParsePolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("round trip of %v via %q failed", p, p.String())
		}
	}
}

func TestGuardsOffByDefault(t *testing.T) {
	defer reset()
	reset()
	bad := tensor.New(2, 2)
	bad.Data()[3] = complex(math.NaN(), 0)
	CheckTensor("test.stage", bad)
	CheckFloats("test.stage", []float64{1, math.Inf(1)})
	CheckValue("test.stage", complex(math.NaN(), 0))
	CheckFloat("test.stage", math.NaN())
	if n := NaNDetected(); n != 0 {
		t.Fatalf("PolicyOff counted %d detections, want 0", n)
	}
}

func TestGuardsCountPolicy(t *testing.T) {
	defer reset()
	reset()
	SetPolicy(PolicyCount)
	bad := tensor.New(2, 2)
	bad.Data()[2] = complex(0, math.Inf(-1))
	CheckTensor("test.stage", bad)
	CheckFloat("test.stage", math.NaN())
	// Clean values must not count.
	CheckTensor("test.stage", tensor.New(2, 2))
	CheckFloat("test.stage", 1.5)
	if n := NaNDetected(); n != 2 {
		t.Fatalf("PolicyCount counted %d detections, want 2", n)
	}
}

func TestGuardsErrorPolicyPanics(t *testing.T) {
	defer reset()
	reset()
	SetPolicy(PolicyError)
	bad := tensor.New(3)
	bad.Data()[1] = complex(math.NaN(), 0)
	func() {
		defer func() {
			ne, ok := recover().(*NumError)
			if !ok {
				t.Fatal("PolicyError did not panic with *NumError")
			}
			if ne.Stage != "test.stage" || ne.Index != 1 {
				t.Fatalf("NumError = %+v, want stage test.stage element 1", ne)
			}
		}()
		CheckTensor("test.stage", bad)
	}()
	if n := NaNDetected(); n != 1 {
		t.Fatalf("PolicyError counted %d detections, want 1", n)
	}
}

func TestGramIllConditioned(t *testing.T) {
	defer reset()
	reset()
	cases := []struct {
		wmax, wmin float64
		want       bool
	}{
		{1, 1, false},
		{1, 1e-11, false},        // κ² = 1e11 < 1e12
		{1, 1e-13, true},         // κ² = 1e13 > 1e12
		{1, 0, true},             // rank deficient
		{1, -1e-20, true},        // negative rounding
		{1, math.NaN(), true},    // poisoned spectrum
		{0, 0, false},            // zero matrix
		{math.Inf(1), 1e3, true}, // poisoned spectrum
	}
	for _, c := range cases {
		if got := GramIllConditioned(c.wmax, c.wmin); got != c.want {
			t.Fatalf("GramIllConditioned(%g, %g) = %v, want %v", c.wmax, c.wmin, got, c.want)
		}
	}
	SetKappa2Max(1e6)
	if !GramIllConditioned(1, 1e-8) {
		t.Fatal("lowered threshold not applied")
	}
	SetKappa2Max(0) // restores the default
	if Kappa2Max() != 1e12 {
		t.Fatalf("Kappa2Max after reset = %g, want 1e12", Kappa2Max())
	}
}

func TestFallbackCountersAlwaysOn(t *testing.T) {
	defer reset()
	reset() // PolicyOff: fallback accounting must still work
	CountSVDFallback()
	CountGramFallback()
	CountGramFallback()
	CountNonconverged("linalg.svd")
	CountCheckpointFailure()
	if SVDFallbacks() != 1 || GramFallbacks() != 2 || Nonconverged() != 1 || CheckpointFailures() != 1 {
		t.Fatalf("counters = %d %d %d %d, want 1 2 1 1",
			SVDFallbacks(), GramFallbacks(), Nonconverged(), CheckpointFailures())
	}
	ResetCounters()
	if SVDFallbacks() != 0 || GramFallbacks() != 0 || Nonconverged() != 0 || CheckpointFailures() != 0 {
		t.Fatal("ResetCounters left residue")
	}
}

func TestInjectorFlipNaNDeterministic(t *testing.T) {
	mk := func() *tensor.Dense {
		return tensor.Rand(rand.New(rand.NewSource(7)), 4, 5)
	}
	a, b := mk(), mk()
	ia, ib := NewInjector(99), NewInjector(99)
	i1, i2 := ia.FlipNaN(a), ib.FlipNaN(b)
	if i1 != i2 {
		t.Fatalf("same-seed injectors flipped different elements: %d vs %d", i1, i2)
	}
	if !math.IsNaN(real(a.Data()[i1])) {
		t.Fatal("flipped element is not NaN")
	}
	if got := ScanSlice(a.Data()); got != i1 {
		t.Fatalf("ScanSlice found %d, injector reported %d", got, i1)
	}
}

func TestInjectorFailCheckpoints(t *testing.T) {
	defer reset()
	reset()
	if err := CheckpointFault(); err != nil {
		t.Fatalf("fault armed by default: %v", err)
	}
	in := NewInjector(3)
	in.FailCheckpoints(2)
	if CheckpointFault() == nil || CheckpointFault() == nil {
		t.Fatal("armed fault did not fire twice")
	}
	if err := CheckpointFault(); err != nil {
		t.Fatalf("fault fired a third time: %v", err)
	}
	in.FailCheckpoints(0) // disarm entirely
	if err := CheckpointFault(); err != nil {
		t.Fatalf("disarmed fault fired: %v", err)
	}
}
