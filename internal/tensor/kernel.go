package tensor

// Kernel dispatch: the packed-panel GEMM, the scatter accumulators, and
// the Jacobi rotation apply each exist twice — a portable pure-Go
// reference and an AVX2+FMA assembly microkernel (gemm_amd64.s). The
// assembly is selected at process start by CPU-feature detection and can
// be overridden per process:
//
//   - build tag "purego" removes the assembly entirely (asmAvailable is
//     constant false and the .s files are excluded);
//   - KOALA_KERNEL=go forces the reference kernels on capable hardware,
//     KOALA_KERNEL=asm asks for the assembly and is ignored (with a
//     recorded reason) when the CPU lacks AVX2/FMA;
//   - SetKernel does the same programmatically (the -kernel CLI flag).
//
// The choice is global and made once per GEMM call, never per worker, so
// the worker-count bit-identity contract of the lattice scheduler holds
// under either kernel: every output element sees the same arithmetic
// regardless of how rows are split over the pool. The Go and assembly
// kernels themselves differ in rounding (the assembly contracts
// multiply-adds with FMA and sums lanes pairwise); the randomized
// equivalence suite in kernel_test.go pins the tolerance policy, and
// DESIGN.md section 13 documents it.

import (
	"fmt"
	"os"
	"sync/atomic"

	"gokoala/internal/obs"
)

// Kernel-call observability: how many GEMM invocations each variant
// served (the mixed counter tracks the opt-in complex64 sketch path).
var (
	obsGEMMAsm   = obs.NewCounter("kernel.gemm_asm")
	obsGEMMGo    = obs.NewCounter("kernel.gemm_go")
	obsGEMMMixed = obs.NewCounter("kernel.gemm_mixed")
)

const (
	kernelAuto int32 = iota
	kernelGo
	kernelAsm
)

// kernelMode holds the process-wide override (kernelAuto by default).
var kernelMode atomic.Int32

func init() {
	if v, ok := os.LookupEnv("KOALA_KERNEL"); ok {
		if err := SetKernel(v); err != nil {
			// Environment overrides must not abort library users; fall back
			// to auto-detection but leave a trace on stderr.
			fmt.Fprintf(os.Stderr, "tensor: ignoring KOALA_KERNEL=%q: %v\n", v, err)
		}
	}
}

// SetKernel selects the kernel implementation: "go" forces the portable
// reference kernels, "asm" requires the AVX2+FMA assembly (an error when
// the build or CPU lacks it), and "auto" (or "") restores CPU-feature
// dispatch. It backs the KOALA_KERNEL environment override and the
// -kernel CLI flag; tests use it to pin a variant.
func SetKernel(name string) error {
	switch name {
	case "", "auto":
		kernelMode.Store(kernelAuto)
	case "go":
		kernelMode.Store(kernelGo)
	case "asm":
		if !asmAvailable {
			return fmt.Errorf("tensor: asm kernels unavailable (%s)", asmUnavailableReason)
		}
		kernelMode.Store(kernelAsm)
	default:
		return fmt.Errorf("tensor: unknown kernel %q (want go|asm|auto)", name)
	}
	return nil
}

// useAsm reports whether the assembly kernels serve the next call.
func useAsm() bool {
	switch kernelMode.Load() {
	case kernelGo:
		return false
	default:
		return asmAvailable
	}
}

// KernelVariant names the kernel implementation currently dispatched to:
// "avx2" for the assembly microkernels, "go" for the portable reference.
// Recorded in BENCH_<suite>.json and the koala_run_info telemetry labels.
func KernelVariant() string {
	if useAsm() {
		return "avx2"
	}
	return "go"
}

// CPUFeatures returns the comma-separated vector features detected on
// this CPU that the kernel layer cares about (empty on non-amd64 or
// purego builds, where detection is compiled out).
func CPUFeatures() string { return cpuFeatures }

// JacobiRotate applies the two-column Jacobi update
//
//	p[i] = c*p[i] - conj(s*phase)*q[i]
//	q[i] = s*phase*p[i] + c*q[i]
//
// in place. It is the inner loop of the one-sided Jacobi SVD in
// internal/linalg, which charges the whole SVD by shape. The update is purely
// elementwise, so both kernel variants are invariant under any row
// split.
func JacobiRotate(p, q []complex128, c float64, s float64, phase complex128) {
	if len(p) == 0 {
		return
	}
	sp := complex(s, 0) * phase
	if useAsm() {
		jacobiRotateAsm(&p[0], &q[0], len(p), c, sp)
		return
	}
	cc := complex(c, 0)
	spc := complex(real(sp), -imag(sp))
	q = q[:len(p)]
	for i := range p {
		pi, qi := p[i], q[i]
		p[i] = cc*pi - spc*qi
		q[i] = sp*pi + cc*qi
	}
}
