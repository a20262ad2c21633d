// Package health is the numerical-robustness layer: NaN/Inf guards at
// stage boundaries, fallback and non-convergence accounting, and the
// thresholds that decide when a fast-but-fragile kernel (Gram
// orthogonalization, randomized SVD) must degrade to its robust
// counterpart (Householder QR, exact truncated SVD).
//
// The paper's Gram orthogonalization (Algorithm 5) squares the condition
// number of the matricized tensor, and its randomized einsumsvd
// (Algorithm 4) can silently under-resolve a subspace. Long ITE/VQE runs
// that go numerically bad would otherwise produce garbage — or die —
// hours in. This package gives every layer one place to report trouble
// and one policy knob for what to do about it:
//
//   - PolicyOff: guards compile to a single atomic load (production hot
//     path, trusted inputs).
//   - PolicyCount: detections increment counters (always-on
//     package-local atomics, enumerated by the obs registry so they
//     appear in -metrics output and /metrics) and execution continues.
//   - PolicyError: detections additionally panic with *NumError, failing
//     fast so a checkpointed run can be killed and resumed rather than
//     burning hours on garbage.
//
// Fallback counters (health.svd_fallbacks, health.gram_fallbacks,
// health.nonconverged, health.checkpoint_failures) are active under every
// policy — degradation is always accounted, only the NaN/Inf scan is
// policy-gated.
package health

import (
	"fmt"
	"math"
	"sync/atomic"

	"gokoala/internal/obs"
	"gokoala/internal/tensor"
)

// Policy selects what the NaN/Inf stage guards do.
type Policy int32

const (
	// PolicyOff disables the scans entirely (default).
	PolicyOff Policy = iota
	// PolicyCount scans and counts detections, but never interrupts.
	PolicyCount
	// PolicyError scans, counts, and panics with *NumError on detection.
	PolicyError
)

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyCount:
		return "count"
	case PolicyError:
		return "error"
	default:
		return "off"
	}
}

// ParsePolicy parses the -health flag values "off", "count", "error".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "off", "":
		return PolicyOff, nil
	case "count":
		return PolicyCount, nil
	case "error":
		return PolicyError, nil
	}
	return PolicyOff, fmt.Errorf("health: unknown policy %q (want off|count|error)", s)
}

var policy atomic.Int32

// SetPolicy installs the global guard policy.
func SetPolicy(p Policy) { policy.Store(int32(p)) }

// CurrentPolicy returns the global guard policy.
func CurrentPolicy() Policy { return Policy(policy.Load()) }

// Checking reports whether NaN/Inf guards are active; the one atomic
// load every guard pays when the policy is off.
func Checking() bool { return CurrentPolicy() != PolicyOff }

// NumError is the typed panic value raised by guards under PolicyError.
type NumError struct {
	// Stage names the boundary that detected the problem, e.g.
	// "backend.truncsvd" or "ite.energy".
	Stage string
	// Index is the flat element index of the first bad entry, or -1 for
	// scalar checks.
	Index int
}

func (e *NumError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("health: non-finite value at stage %q", e.Stage)
	}
	return fmt.Sprintf("health: non-finite value at stage %q (element %d)", e.Stage, e.Index)
}

// --- counters ---
//
// Each count is one always-on package-local atomic, so fallback
// decisions are observable without enabling tracing. The obs registry
// reads them through CounterFunc (health.nan_detected, ...), which puts
// them in -metrics output and /metrics without a second counter.

var (
	cntNaN          atomic.Int64
	cntSVDFallback  atomic.Int64
	cntGramFallback atomic.Int64
	cntNonconverged atomic.Int64
	cntCkptFailure  atomic.Int64
	cntSymFallback  atomic.Int64
)

func init() {
	obs.CounterFunc("health.nan_detected", NaNDetected)
	obs.CounterFunc("health.svd_fallbacks", SVDFallbacks)
	obs.CounterFunc("health.gram_fallbacks", GramFallbacks)
	obs.CounterFunc("health.nonconverged", Nonconverged)
	obs.CounterFunc("health.checkpoint_failures", CheckpointFailures)
	obs.CounterFunc("health.sym_fallbacks", SymFallbacks)
}

// NaNDetected returns how many guard scans found a non-finite value.
func NaNDetected() int64 { return cntNaN.Load() }

// SVDFallbacks returns how many randomized-SVD factorizations degraded
// to the exact truncated SVD.
func SVDFallbacks() int64 { return cntSVDFallback.Load() }

// GramFallbacks returns how many Gram orthogonalizations degraded to
// Householder QR.
func GramFallbacks() int64 { return cntGramFallback.Load() }

// Nonconverged returns how many iterative solves exhausted their
// iteration budget without meeting tolerance.
func Nonconverged() int64 { return cntNonconverged.Load() }

// CheckpointFailures returns how many checkpoint writes failed (and were
// survived).
func CheckpointFailures() int64 { return cntCkptFailure.Load() }

// ResetCounters zeroes the package-local counters; tests use this to
// assert "exactly once" semantics.
func ResetCounters() {
	cntNaN.Store(0)
	cntSVDFallback.Store(0)
	cntGramFallback.Store(0)
	cntNonconverged.Store(0)
	cntCkptFailure.Store(0)
	cntSymFallback.Store(0)
}

// CountSVDFallback records one randomized-SVD → exact-SVD degradation.
func CountSVDFallback() {
	cntSVDFallback.Add(1)
}

// CountGramFallback records one Gram → Householder-QR degradation.
func CountGramFallback() {
	cntGramFallback.Add(1)
}

// CountNonconverged records an iterative solve that exhausted its budget.
func CountNonconverged(stage string) {
	_ = stage // kept for call-site documentation; counters are global
	cntNonconverged.Add(1)
}

// CountCheckpointFailure records a failed (but survived) checkpoint write.
func CountCheckpointFailure() {
	cntCkptFailure.Add(1)
}

// SymFallbacks returns how many symmetric evolutions embedded to dense
// because a gate did not conserve charge.
func SymFallbacks() int64 { return cntSymFallback.Load() }

// CountSymFallback records one block-sparse → dense evolution fallback.
func CountSymFallback() {
	cntSymFallback.Add(1)
}

// --- NaN/Inf guards ---

func badFloat(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

func badComplex(v complex128) bool { return badFloat(real(v)) || badFloat(imag(v)) }

// ScanSlice returns the index of the first non-finite element, or -1.
func ScanSlice(d []complex128) int {
	for i, v := range d {
		if badComplex(v) {
			return i
		}
	}
	return -1
}

func detect(stage string, index int) {
	cntNaN.Add(1)
	if CurrentPolicy() == PolicyError {
		panic(&NumError{Stage: stage, Index: index})
	}
}

// CheckTensor scans t at a stage boundary under the current policy.
// Nil tensors are ignored.
func CheckTensor(stage string, t *tensor.Dense) {
	if !Checking() || t == nil {
		return
	}
	if i := ScanSlice(t.Data()); i >= 0 {
		detect(stage, i)
	}
}

// CheckFloats scans a real vector (singular values, eigenvalues).
func CheckFloats(stage string, d []float64) {
	if !Checking() {
		return
	}
	for i, v := range d {
		if badFloat(v) {
			detect(stage, i)
			return
		}
	}
}

// CheckValue guards a scalar (a contracted norm, an energy).
func CheckValue(stage string, v complex128) {
	if !Checking() {
		return
	}
	if badComplex(v) {
		detect(stage, -1)
	}
}

// CheckFloat guards a real scalar.
func CheckFloat(stage string, v float64) {
	if !Checking() {
		return
	}
	if badFloat(v) {
		detect(stage, -1)
	}
}

// --- degradation thresholds ---

// kappa2MaxBits holds the κ² threshold for the Gram path as float bits;
// default 1e12 (κ ≈ 1e6): beyond it the squared-condition-number method
// cannot resolve the small directions in double precision and the caller
// must degrade to Householder QR.
var kappa2MaxBits atomic.Uint64

func init() { kappa2MaxBits.Store(math.Float64bits(1e12)) }

// Kappa2Max returns the current Gram-path κ² threshold.
func Kappa2Max() float64 { return math.Float64frombits(kappa2MaxBits.Load()) }

// SetKappa2Max installs a κ² threshold; values <= 0 restore the default.
func SetKappa2Max(v float64) {
	if v <= 0 {
		v = 1e12
	}
	kappa2MaxBits.Store(math.Float64bits(v))
}

// GramIllConditioned decides, from the extreme eigenvalues of the Gram
// matrix G = A*A (which are the squared singular values of A), whether
// the Gram orthogonalization path must degrade to QR. Non-positive or
// non-finite wmin means numerically rank-deficient: always degrade.
func GramIllConditioned(wmax, wmin float64) bool {
	if wmax <= 0 {
		return false // zero matrix: nothing to orthogonalize either way
	}
	if wmin <= 0 || badFloat(wmin) || badFloat(wmax) {
		return true
	}
	return wmax/wmin > Kappa2Max()
}

// DefaultSubspaceTol is the randomized-SVD probe-residual tolerance above
// which ImplicitRand falls back to the exact truncated SVD. The residual
// of a healthy truncation is the relative spectral weight the truncation
// discards (typically ≪ 0.1); a sketch that missed a dominant subspace
// shows residuals of order one.
const DefaultSubspaceTol = 0.5

// --- checkpoint fault injection hook ---

// ckptFault, when armed by an Injector, makes the next checkpoint writes
// fail deterministically so tests can prove crash-safety.
var ckptFault atomic.Pointer[func() error]

// SetCheckpointFault installs (or, with nil, clears) the checkpoint
// write-fault hook.
func SetCheckpointFault(f func() error) {
	if f == nil {
		ckptFault.Store(nil)
		return
	}
	ckptFault.Store(&f)
}

// CheckpointFault returns a non-nil error when a fault is armed for this
// write; checkpoint.WriteAtomic consults it before touching the disk.
func CheckpointFault() error {
	p := ckptFault.Load()
	if p == nil {
		return nil
	}
	return (*p)()
}
