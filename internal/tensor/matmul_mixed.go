package tensor

import (
	"fmt"

	"gokoala/internal/pool"
)

// Mixed-precision GEMM: operands are converted complex128 -> complex64
// once at the call boundary, the whole multiply runs in float32
// arithmetic (the AVX2 complex64 microkernels when available, a pure-Go
// streaming kernel otherwise), and the product widens back to complex128
// on the way out. This is the compute path behind the opt-in RandSVD
// complex64 sketch (linalg.RandSVDOptions.Sketch32): the sketch only
// needs a subspace, not full-precision entries, and the paper's
// Algorithm 4 tolerates the precision loss — the deterministic subspace
// probe and the ImplicitRand->Explicit fallback catch the cases where it
// does not. Flops are charged exactly as for the full-precision kernels
// so deterministic cost metrics do not depend on the precision choice.

// MatMulMixed returns a@b for rank-2 operands, computed in complex64
// arithmetic with complex128 operands and result.
func MatMulMixed(a, b *Dense) *Dense {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulMixed requires rank-2 operands, got %d and %d", a.Rank(), b.Rank()))
	}
	m, ka := a.shape[0], a.shape[1]
	kb, n := b.shape[0], b.shape[1]
	if ka != kb {
		panic(fmt.Sprintf("tensor: MatMulMixed shape mismatch %v x %v", a.shape, b.shape))
	}
	out := New(m, n)
	batchGEMMMixed(out.data, a.data, b.data, 1, m, n, ka)
	return out
}

// BatchMatMulMixed is the batched ([bt, m, k] x [bt, k, n]) variant; its
// signature matches einsum.Hooks.GEMM, which is how mixed-precision
// contraction is plugged into the plan executor.
func BatchMatMulMixed(a, b *Dense) *Dense {
	bt, m := a.shape[0], a.shape[1]
	n := b.shape[2]
	out := New(bt, m, n)
	BatchMatMulMixedInto(out, a, b)
	return out
}

// BatchMatMulMixedInto is BatchMatMulMixed into a caller-provided
// destination (overwritten, not accumulated into).
func BatchMatMulMixedInto(out, a, b *Dense) {
	if a.Rank() != 3 || b.Rank() != 3 || out.Rank() != 3 {
		panic(fmt.Sprintf("tensor: BatchMatMulMixedInto requires rank-3 operands, got %d, %d, %d", out.Rank(), a.Rank(), b.Rank()))
	}
	bt, m, ka := a.shape[0], a.shape[1], a.shape[2]
	bt2, kb, n := b.shape[0], b.shape[1], b.shape[2]
	if bt != bt2 || ka != kb {
		panic(fmt.Sprintf("tensor: BatchMatMulMixed shape mismatch %v x %v", a.shape, b.shape))
	}
	if out.shape[0] != bt || out.shape[1] != m || out.shape[2] != n {
		panic(fmt.Sprintf("tensor: BatchMatMulMixedInto output shape %v, want [%d %d %d]", out.shape, bt, m, n))
	}
	batchGEMMMixed(out.data, a.data, b.data, bt, m, n, ka)
}

func batchGEMMMixed(c, a, b []complex128, bt, m, n, k int) {
	obsGEMMMixed.Add(1)
	// Same flop charge as the full-precision kernels: cost metrics gate
	// work done, not the precision it was done in.
	flopCount.Add(int64(bt) * int64(m) * int64(n) * int64(k))
	a64 := make([]complex64, bt*m*k)
	b64 := make([]complex64, bt*k*n)
	c64 := make([]complex64, bt*m*n)
	for i, v := range a[:len(a64)] {
		a64[i] = complex64(v)
	}
	for i, v := range b[:len(b64)] {
		b64[i] = complex64(v)
	}
	// One kernel decision on the full batch shape, as in batchGEMM:
	// per-chunk row counts depend on the worker split and must not flip
	// which kernel (and rounding) serves a row.
	asm := useAsm() && asmGemmProfitable(m, n, k)
	grain := int(65536/(int64(n)*int64(k))) + 1
	pool.For(bt*m, grain, func(lo, hi int) {
		for r := lo; r < hi; {
			t, i := r/m, r%m
			rows := min(m-i, hi-r)
			co := c64[(t*m+i)*n : (t*m+i+rows)*n]
			ao := a64[(t*m+i)*k : (t*m+i+rows)*k]
			bo := b64[t*k*n : (t+1)*k*n]
			if asm {
				gemm64Asm(co, ao, bo, rows, n, k)
			} else {
				gemm64Go(co, ao, bo, rows, n, k)
			}
			r += rows
		}
	})
	for i, v := range c64 {
		c[i] = complex128(v)
	}
}

// gemm64Go is the portable reference: the same paired i-k-j streaming
// loop as gemmSmall, in single precision.
func gemm64Go(c, a, b []complex64, m, n, k int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		b0 := b[:n]
		var l int
		if k > 1 {
			a0, a1 := arow[0], arow[1]
			b1 := b[n : 2*n][:len(b0)]
			for j := range crow {
				crow[j] = a0*b0[j] + a1*b1[j]
			}
			l = 2
		} else {
			a0 := arow[0]
			for j := range crow {
				crow[j] = a0 * b0[j]
			}
			l = 1
		}
		for ; l+1 < k; l += 2 {
			a0, a1 := arow[l], arow[l+1]
			b0 := b[l*n : (l+1)*n]
			b1 := b[(l+1)*n : (l+2)*n][:len(b0)]
			for j := range crow {
				crow[j] += a0*b0[j] + a1*b1[j]
			}
		}
		if l < k {
			al := arow[l]
			brow := b[l*n : (l+1)*n]
			for j := range crow {
				crow[j] += al * brow[j]
			}
		}
	}
}

// gemm64Asm mirrors gemmAsm for complex64: packed-B panels at stride kp
// rounded up to a multiple of four (one YMM holds four complex64), with
// zero padding in both the pack and the copied A strips, a row-pair and
// bit-identical single-row microkernel, and the odd trailing column
// computed in Go at a fixed position.
func gemm64Asm(c, a, b []complex64, m, n, k int) {
	var packBuf [gemmBlockK * gemmBlockN]complex64
	var aPad [2 * gemmBlockK]complex64
	for kk := 0; kk < k; kk += gemmBlockK {
		kMax := min(kk+gemmBlockK, k)
		kLen := kMax - kk
		kp := (kLen + 3) &^ 3
		store := kk == 0
		for jj := 0; jj < n; jj += gemmBlockN {
			jMax := min(jj+gemmBlockN, n)
			cols := jMax - jj
			for j := jj; j < jMax; j++ {
				col := packBuf[(j-jj)*kp : (j-jj)*kp+kp]
				bo := kk*n + j
				for l := 0; l < kLen; l++ {
					col[l] = b[bo]
					bo += n
				}
				for l := kLen; l < kp; l++ {
					col[l] = 0
				}
			}
			pairs := cols / 2
			var i int
			for i = 0; i+1 < m; i += 2 {
				pa0 := &a[i*k+kk]
				pa1 := &a[(i+1)*k+kk]
				if kp > kLen {
					pad64(aPad[:gemmBlockK], a[i*k+kk:], kLen, kp)
					pad64(aPad[gemmBlockK:], a[(i+1)*k+kk:], kLen, kp)
					pa0, pa1 = &aPad[0], &aPad[gemmBlockK]
				}
				if pairs > 0 {
					gemmPanelPairC64Asm(&c[i*n+jj], &c[(i+1)*n+jj], pa0, pa1, &packBuf[0], kp, pairs, store)
				}
			}
			if i < m {
				pa0 := &a[i*k+kk]
				if kp > kLen {
					pad64(aPad[:gemmBlockK], a[i*k+kk:], kLen, kp)
					pa0 = &aPad[0]
				}
				if pairs > 0 {
					gemmPanelRowC64Asm(&c[i*n+jj], pa0, &packBuf[0], kp, pairs, store)
				}
			}
			if cols%2 != 0 {
				j := jMax - 1
				col := packBuf[(cols-1)*kp : (cols-1)*kp+kLen]
				for i := 0; i < m; i++ {
					arow := a[i*k+kk : i*k+kk+kLen]
					var s complex64
					for l := range arow {
						s += arow[l] * col[l]
					}
					if store {
						c[i*n+j] = s
					} else {
						c[i*n+j] += s
					}
				}
			}
		}
	}
}

// pad64 copies kLen elements of src into dst and zeroes dst up to kp.
func pad64(dst, src []complex64, kLen, kp int) {
	copy(dst[:kLen], src)
	for l := kLen; l < kp; l++ {
		dst[l] = 0
	}
}
