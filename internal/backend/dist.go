package backend

import (
	"gokoala/internal/dist"
	"gokoala/internal/einsum"
	"gokoala/internal/health"
	"gokoala/internal/linalg"
	"gokoala/internal/tensor"
)

// Dist executes the heavy kernels on a simulated distributed-memory grid.
// Every einsum's GEMMs run through the grid's SPMD block kernel; every
// materializing transpose is metered as an all-to-all redistribution,
// which is exactly the Cyclops reshape bottleneck paper section V-C
// describes. The orthogonalization/factorization variants mirror the
// algorithm names of paper Figure 7:
//
//   - UseGram = false: the "ctf-qr-svd" style — factorizations pay the
//     distributed reshape and gather, compute on one rank, and scatter.
//   - UseGram = true: the "ctf-local-gram-qr(-svd)" style — paper
//     Algorithm 5: a redistribution-free distributed Gram GEMM plus tiny
//     local eigensolves.
type Dist struct {
	Grid    *dist.Grid
	UseGram bool
	// LocalSVD computes explicit truncated SVDs sequentially on one rank
	// with only a broadcast of the small factors, instead of paying the
	// distributed reshape — valid when the matricized tensors fit in
	// local memory, as in the R-G-R networks of the QR-SVD update. This
	// is the paper's "local-gram-qr-svd" variant (Figure 7).
	LocalSVD bool
}

// NewDist returns a distributed engine on the given grid.
func NewDist(g *dist.Grid, useGram bool) *Dist {
	return &Dist{Grid: g, UseGram: useGram}
}

func (d *Dist) Name() string {
	switch {
	case d.UseGram && d.LocalSVD:
		return "dist-local-gram-qr-svd"
	case d.UseGram:
		return "dist-local-gram-qr"
	default:
		return "dist-qr-svd"
	}
}

const bytesPerElem = 16

// svdEffRanks is the effective parallelism of the modeled
// ScaLAPACK-style distributed SVD, which scales far worse than GEMM.
const svdEffRanks = 16

func (d *Dist) Einsum(spec string, ops ...*tensor.Dense) *tensor.Dense {
	return contract(spec, ops, einsum.Hooks{
		OnMove: func(elements int) {
			d.Grid.AllToAll(int64(elements) * bytesPerElem)
		},
		GEMM: d.Grid.BatchMatMul,
	}, d.Grid, "")
}

// QRSplit factors a tensor with the first leftAxes axes as rows.
func (d *Dist) QRSplit(t *tensor.Dense, leftAxes int) (*tensor.Dense, *tensor.Dense) {
	sp := startSpan("backend.qrsplit", d.Grid)
	shape := t.Shape()
	rows, cols := 1, 1
	for i, dim := range shape {
		if i < leftAxes {
			rows *= dim
		} else {
			cols *= dim
		}
	}
	var qm, rm *tensor.Dense
	direct := !d.UseGram
	if d.UseGram {
		// Paper Algorithm 5: distributed Gram GEMM (allreduce of a small
		// cols-by-cols matrix only), local eigendecomposition, broadcast
		// of the small P factor, distributed Q = A P.
		a := t.Reshape(rows, cols)
		g := d.Grid.GramMatrix(a)
		rmg, p, ok := linalg.GramFactors(g)
		d.chargeGramFactors(cols)
		if ok {
			rm = rmg
			d.Grid.Bcast(int64(p.Size()) * bytesPerElem)
			qm = d.Grid.MatMul(a, p)
		} else {
			// κ² of the matricized tensor is past health.Kappa2Max: the
			// squared conditioning of the Gram method cannot resolve the
			// small directions, so degrade to the direct Householder-QR
			// path (paying its redistribution). The Gram attempt's cost
			// stays metered — the model reflects attempt-then-degrade.
			health.CountGramFallback()
			direct = true
		}
	}
	if direct {
		// Direct path: distributed reshape (alltoall), gather the
		// matricized tensor, factor locally, scatter back.
		d.Grid.AllToAll(int64(t.Size()) * bytesPerElem)
		d.Grid.Gather(int64(t.Size()) * bytesPerElem)
		qm, rm = linalg.QR(t.Reshape(rows, cols))
		d.Grid.ChargeFlops(linalg.QRFlops(rows, cols), svdEffRanks)
		d.Grid.Gather(int64(qm.Size()+rm.Size()) * bytesPerElem) // scatter results
	}
	k := qm.Dim(1)
	qShape := append(append([]int{}, shape[:leftAxes]...), k)
	rShape := append([]int{k}, shape[leftAxes:]...)
	q, r := qm.Reshape(qShape...), rm.Reshape(rShape...)
	sp.end()
	checkFactorization("backend.qrsplit", q, r, nil)
	return q, r
}

// chargeGramFactors accounts the single-rank work of linalg.GramFactors
// on the grid analytically — the n-by-n eigendecomposition plus the two
// n³ factor GEMMs — instead of measuring a global flop delta, which would
// attribute concurrent tasks' flops to this grid (and each other's) when
// lattice task groups drive the same engine from several workers.
func (d *Dist) chargeGramFactors(n int) {
	n64 := int64(n)
	d.Grid.ChargeFlops(linalg.EigFlops(n)+2*n64*n64*n64, 1)
}

// TruncSVD models the ScaLAPACK-via-Cyclops explicit SVD: a distributed
// reshape to the factorization layout plus a factorization whose
// scalability saturates at svdEffRanks.
func (d *Dist) TruncSVD(m *tensor.Dense, rank int) (*tensor.Dense, []float64, *tensor.Dense) {
	sp := startSpan("backend.truncsvd", d.Grid)
	var u, v *tensor.Dense
	var s []float64
	if d.LocalSVD {
		// Small-matrix path: compute on one rank and broadcast the
		// factors; no distributed reshape.
		u, s, v = linalg.TruncatedSVD(m, rank)
		d.Grid.ChargeFlops(linalg.SVDFlops(m.Dim(0), m.Dim(1)), 1)
		d.Grid.Bcast(int64(u.Size()+v.Size()) * bytesPerElem)
	} else {
		d.Grid.AllToAll(int64(m.Size()) * bytesPerElem)
		u, s, v = linalg.TruncatedSVD(m, rank)
		d.Grid.ChargeFlops(linalg.SVDFlops(m.Dim(0), m.Dim(1)), svdEffRanks)
		d.Grid.AllToAll(int64(u.Size()+v.Size()) * bytesPerElem)
	}
	sp.endSVD(m, s)
	checkFactorization("backend.truncsvd", u, v, s)
	return u, s, v
}

// Orth orthonormalizes a tall block vector for randomized SVD iterations.
func (d *Dist) Orth(x *tensor.Dense) *tensor.Dense {
	sp := startSpan("backend.orth", d.Grid)
	var q *tensor.Dense
	if d.UseGram {
		g := d.Grid.GramMatrix(x)
		_, p, ok := linalg.GramFactors(g)
		d.chargeGramFactors(x.Dim(1))
		if ok {
			d.Grid.Bcast(int64(p.Size()) * bytesPerElem)
			q = d.Grid.MatMul(x, p)
		} else {
			// Ill-conditioned block vector: degrade to the direct QR
			// path below (see QRSplit for the rationale).
			health.CountGramFallback()
		}
	}
	if q == nil {
		d.Grid.AllToAll(int64(x.Size()) * bytesPerElem)
		d.Grid.Gather(int64(x.Size()) * bytesPerElem)
		q = linalg.OrthQR(x)
		d.Grid.ChargeFlops(linalg.QRFlops(x.Dim(0), x.Dim(1)), svdEffRanks)
		d.Grid.Gather(int64(q.Size()) * bytesPerElem)
	}
	sp.end()
	health.CheckTensor("backend.orth", q)
	return q
}
