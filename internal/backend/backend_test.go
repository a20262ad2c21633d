package backend

import (
	"math/rand"
	"testing"

	"gokoala/internal/dist"
	"gokoala/internal/einsum"
	"gokoala/internal/linalg"
	"gokoala/internal/tensor"
)

func engines() map[string]Engine {
	return map[string]Engine{
		"dense":            NewDense(),
		"dist":             NewDist(dist.NewGrid(dist.Stampede2(8)), false),
		"dist-gram":        NewDist(dist.NewGrid(dist.Stampede2(8)), true),
		"dist-gram-locsvd": &Dist{Grid: dist.NewGrid(dist.Stampede2(8)), UseGram: true, LocalSVD: true},
	}
}

func TestEnginesAgreeOnEinsum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := tensor.Rand(rng, 3, 4, 5)
	b := tensor.Rand(rng, 5, 4, 2)
	want := einsum.MustContract("abc,cbd->ad", a, b)
	for name, e := range engines() {
		got := e.Einsum("abc,cbd->ad", a, b)
		if !tensor.AllClose(got, want, 1e-11, 1e-11) {
			t.Errorf("%s: einsum differs from reference", name)
		}
	}
}

func TestEnginesQRSplitReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := tensor.Rand(rng, 4, 3, 2, 5)
	for name, e := range engines() {
		q, r := e.QRSplit(a, 2)
		if !tensor.SameShape(q.Shape(), []int{4, 3, 10}) {
			t.Fatalf("%s: q shape %v", name, q.Shape())
		}
		back := einsum.MustContract("abk,kcd->abcd", q, r)
		if !tensor.AllClose(back, a, 1e-9, 1e-9) {
			t.Errorf("%s: QRSplit does not reconstruct", name)
		}
		// Q isometric over its row axes
		qm := q.Reshape(12, 10)
		qhq := tensor.MatMul(qm.Conj().Transpose(1, 0), qm)
		if !tensor.AllClose(qhq, tensor.Eye(10), 0, 1e-9) {
			t.Errorf("%s: Q not isometric", name)
		}
	}
}

func TestEnginesTruncSVDAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := tensor.Rand(rng, 9, 7)
	_, sWant, _ := linalg.TruncatedSVD(a, 4)
	for name, e := range engines() {
		u, s, v := e.TruncSVD(a, 4)
		for i := range sWant {
			if d := s[i] - sWant[i]; d > 1e-10 || d < -1e-10 {
				t.Errorf("%s: singular values differ: %v vs %v", name, s, sWant)
				break
			}
		}
		if u.Dim(1) != 4 || v.Dim(1) != 4 {
			t.Errorf("%s: truncation shapes wrong", name)
		}
	}
}

func TestEnginesOrth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := tensor.Rand(rng, 30, 5)
	for name, e := range engines() {
		q := e.Orth(x)
		qhq := tensor.MatMul(q.Conj().Transpose(1, 0), q)
		if !tensor.AllClose(qhq, tensor.Eye(5), 0, 1e-9) {
			t.Errorf("%s: Orth output not orthonormal", name)
		}
		// Same column span: projection of x onto q-range reproduces x.
		proj := tensor.MatMul(q, tensor.MatMul(q.Conj().Transpose(1, 0), x))
		if !tensor.AllClose(proj, x, 1e-8, 1e-8) {
			t.Errorf("%s: Orth changed the span", name)
		}
	}
}

func TestRandSVDThroughEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := tensor.Rand(rng, 16, 3)
	c := tensor.Rand(rng, 3, 11)
	a := tensor.MatMul(b, c)
	for name, e := range engines() {
		u, s, v, rep := RandSVDChecked(e, linalg.MatrixOperator{M: a}, 3, 2, 2, rng, 0, false)
		if !rep.Converged {
			t.Errorf("%s: probe residual %g on an exactly rank-3 matrix", name, rep.Residual)
		}
		sd := tensor.New(3, 3)
		for i := 0; i < 3; i++ {
			sd.Set(complex(s[i], 0), i, i)
		}
		back := tensor.MatMul(tensor.MatMul(u, sd), v.Conj().Transpose(1, 0))
		if !tensor.AllClose(back, a, 1e-7, 1e-7) {
			t.Errorf("%s: RandSVDChecked failed to recover low-rank matrix", name)
		}
	}
}

func TestGramVariantCommunicatesLess(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := tensor.Rand(rng, 8, 8, 8, 4) // tall matricization 512 x 4... (first 3 axes as rows)
	gridDirect := dist.NewGrid(dist.Stampede2(16))
	gridGram := dist.NewGrid(dist.Stampede2(16))
	direct := NewDist(gridDirect, false)
	gram := NewDist(gridGram, true)
	direct.QRSplit(a, 3)
	gram.QRSplit(a, 3)
	db := gridDirect.Snapshot()
	gb := gridGram.Snapshot()
	if gb.Bytes >= db.Bytes {
		t.Fatalf("gram bytes %d should be below direct bytes %d", gb.Bytes, db.Bytes)
	}
	if gb.Redistributions >= db.Redistributions {
		t.Fatalf("gram should avoid redistributions: %d vs %d", gb.Redistributions, db.Redistributions)
	}
	if gb.ModeledSeconds() >= db.ModeledSeconds() {
		t.Fatalf("gram modeled time %g should beat direct %g", gb.ModeledSeconds(), db.ModeledSeconds())
	}
}

func TestDistEinsumMetersCommunication(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := dist.NewGrid(dist.Stampede2(8))
	e := NewDist(g, true)
	a := tensor.Rand(rng, 12, 10)
	b := tensor.Rand(rng, 10, 9)
	e.Einsum("ij,jk->ik", a, b)
	s := g.Snapshot()
	if s.Bytes == 0 || s.ParallelFlops == 0 {
		t.Fatalf("distributed einsum should meter comm and flops: %+v", s)
	}
}

func TestEngineNames(t *testing.T) {
	if NewDense().Name() != "dense" {
		t.Fatal("dense name")
	}
	g := dist.NewGrid(dist.Stampede2(4))
	if NewDist(g, false).Name() != "dist-qr-svd" || NewDist(g, true).Name() != "dist-local-gram-qr" {
		t.Fatal("dist names")
	}
	local := &Dist{Grid: g, UseGram: true, LocalSVD: true}
	if local.Name() != "dist-local-gram-qr-svd" {
		t.Fatal("local svd name")
	}
}
