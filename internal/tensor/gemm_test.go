package tensor

import (
	"fmt"
	"math"
	"testing"
)

// refGemm is an independent triple-loop reference (float64 accumulation)
// for validating the blocked kernels.
func refGemm(dst, a, b *Tensor, m, k, n int, aTrans, bTrans, accum bool, bias []float32) {
	at := func(i, p int) float32 {
		if aTrans {
			return a.data[p*m+i]
		}
		return a.data[i*k+p]
	}
	bt := func(p, j int) float32 {
		if bTrans {
			return b.data[j*k+p]
		}
		return b.data[p*n+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(at(i, p)) * float64(bt(p, j))
			}
			if bias != nil {
				s += float64(bias[i])
			}
			if accum {
				dst.data[i*n+j] += float32(s)
			} else {
				dst.data[i*n+j] = float32(s)
			}
		}
	}
}

func maxAbsDiff(x, y *Tensor) float64 {
	var worst float64
	for i, v := range x.data {
		d := math.Abs(float64(v) - float64(y.data[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}

// gemmShapes exercises tiny, odd, rectangular, and EDSR-layer shapes. The
// EDSR entries are the per-sample matmuls of the tiny config (16 feats)
// and the baseline config (64 feats) on a 24×24 patch; the paper-scale
// 256-feat shape is covered by TestGemmEDSRPaperShape.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 5, 3},
	{3, 1, 7},
	{4, 4, 4},
	{5, 7, 9},
	{8, 16, 4},
	{13, 3, 2},
	{17, 33, 65},
	{64, 64, 64},
	{3, 27, 576},   // EDSR-tiny head conv: (OutC=16 uses next entry's k)
	{16, 144, 576}, // EDSR-tiny body conv
	{64, 576, 576}, // EDSR-baseline body conv
}

func fillRand(r *RNG, ts ...*Tensor) {
	for _, t := range ts {
		t.FillUniform(r, -1, 1)
	}
}

func tolFor(k int) float64 { return 1e-4 * math.Sqrt(float64(k)) * 4 }

func TestGemmAgainstReference(t *testing.T) {
	r := NewRNG(42)
	for _, sh := range gemmShapes {
		m, k, n := sh.m, sh.k, sh.n
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a, b := New(m, k), New(k, n)
			at, bt := New(k, m), New(n, k)
			bias := New(m)
			fillRand(r, a, b, at, bt, bias)
			got, want := New(m, n), New(m, n)
			tol := tolFor(k)

			check := func(name string) {
				t.Helper()
				if d := maxAbsDiff(got, want); d > tol {
					t.Errorf("%s: max abs diff %g > tol %g", name, d, tol)
				}
			}

			MatMul(got, a, b)
			refGemm(want, a, b, m, k, n, false, false, false, nil)
			check("MatMul")

			fillRand(r, got)
			want.CopyFrom(got)
			MatMulAccum(got, a, b)
			refGemm(want, a, b, m, k, n, false, false, true, nil)
			check("MatMulAccum")

			MatMulTransA(got, at, b)
			refGemm(want, at, b, m, k, n, true, false, false, nil)
			check("MatMulTransA")

			fillRand(r, got)
			want.CopyFrom(got)
			MatMulTransAAccum(got, at, b)
			refGemm(want, at, b, m, k, n, true, false, true, nil)
			check("MatMulTransAAccum")

			// TransB: dst(m×n) = a'(m×k')·bᵀ with b stored (n×k'). Reuse
			// dims by treating k as the shared inner dimension.
			a2 := New(m, k)
			b2 := New(n, k)
			fillRand(r, a2, b2)
			MatMulTransB(got, a2, b2)
			refGemm(want, a2, b2, m, k, n, false, true, false, nil)
			check("MatMulTransB")

			fillRand(r, got)
			want.CopyFrom(got)
			MatMulTransBAccum(got, a2, b2)
			refGemm(want, a2, b2, m, k, n, false, true, true, nil)
			check("MatMulTransBAccum")

			// Workspace (serial, slice-level) variants incl. fused bias.
			ws := NewWorkspace()
			ws.Gemm(got.data, a.data, b.data, m, k, n)
			refGemm(want, a, b, m, k, n, false, false, false, nil)
			check("Workspace.Gemm")

			ws.GemmBias(got.data, a.data, b.data, bias.data, m, k, n)
			refGemm(want, a, b, m, k, n, false, false, false, bias.data)
			check("Workspace.GemmBias")

			ws.GemmTransA(got.data, at.data, b.data, k, m, n)
			refGemm(want, at, b, m, k, n, true, false, false, nil)
			check("Workspace.GemmTransA")

			ws.GemmTransB(got.data, a2.data, b2.data, m, k, n)
			refGemm(want, a2, b2, m, k, n, false, true, false, nil)
			check("Workspace.GemmTransB")

			fillRand(r, got)
			want.CopyFrom(got)
			ws.GemmTransBAccum(got.data, a2.data, b2.data, m, k, n)
			refGemm(want, a2, b2, m, k, n, false, true, true, nil)
			check("Workspace.GemmTransBAccum")

			fillRand(r, got)
			want.CopyFrom(got)
			ws.GemmAccum(got.data, a.data, b.data, m, k, n)
			refGemm(want, a, b, m, k, n, false, false, true, nil)
			check("Workspace.GemmAccum")
		})
	}
}

// gemmNaive is the pre-blocking j-inner kernel, kept as the float32
// reference for the blocked engine. It streams all of b from memory for
// every output row, which is exactly what the packed kernels avoid.
func gemmNaive(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic("tensor: gemmNaive shape mismatch")
	}
	ad, bd, dd := a.data, b.data, dst.data
	parallelFor(m, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			drow := dd[i*n : (i+1)*n]
			for j := range drow {
				drow[j] = 0
			}
			arow := ad[i*k : (i+1)*k]
			for p, av := range arow {
				brow := bd[p*n : (p+1)*n]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	})
}

// TestGemmMatchesNaive cross-checks the blocked engine against the kept
// pre-blocking kernel on a shape spanning several cache blocks.
func TestGemmMatchesNaive(t *testing.T) {
	r := NewRNG(7)
	const m, k, n = 130, 260, 515 // deliberately just past MC/KC/NC edges
	a, b := New(m, k), New(k, n)
	fillRand(r, a, b)
	got, want := New(m, n), New(m, n)
	MatMul(got, a, b)
	gemmNaive(want, a, b)
	if d := maxAbsDiff(got, want); d > tolFor(k) {
		t.Fatalf("blocked vs naive: max abs diff %g", d)
	}
}

// TestGemmParallelMatchesSerial pins worker-count independence: the same
// product computed with 1 and several workers must agree exactly (row
// strips do not change per-element summation order).
func TestGemmParallelMatchesSerial(t *testing.T) {
	r := NewRNG(8)
	const m, k, n = 96, 64, 48
	a, b := New(m, k), New(k, n)
	fillRand(r, a, b)
	serial, par := New(m, n), New(m, n)

	prev := SetMaxWorkers(1)
	MatMul(serial, a, b)
	SetMaxWorkers(5)
	MatMul(par, a, b)
	SetMaxWorkers(prev)

	if d := maxAbsDiff(serial, par); d != 0 {
		t.Fatalf("parallel result differs from serial by %g", d)
	}
}

// TestGemmEDSRPaperShape validates (and, under -bench, measures) the exact
// paper-scale EDSR body-conv matmul named in the acceptance criteria:
// OutC=256, K=256·3·3=2304, columns=24·24=576.
func TestGemmEDSRPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale GEMM skipped in -short mode")
	}
	r := NewRNG(9)
	const m, k, n = 256, 2304, 576
	a, b := New(m, k), New(k, n)
	fillRand(r, a, b)
	got, want := New(m, n), New(m, n)
	MatMul(got, a, b)
	gemmNaive(want, a, b)
	if d := maxAbsDiff(got, want); d > tolFor(k) {
		t.Fatalf("EDSR shape: max abs diff %g", d)
	}
}

func TestWorkspaceSlots(t *testing.T) {
	ws := NewWorkspace()
	s0 := ws.Slot(0, 10)
	if len(s0) != 10 {
		t.Fatalf("slot len %d", len(s0))
	}
	s0[3] = 7
	// Growing slot 2 must not disturb slot 0's backing array.
	_ = ws.ZeroSlot(2, 100)
	again := ws.Slot(0, 10)
	if again[3] != 7 {
		t.Fatal("slot 0 lost its contents")
	}
	// Shrinking returns a shorter view of the same array.
	small := ws.Slot(0, 4)
	if len(small) != 4 || small[3] != 7 {
		t.Fatal("shrunk slot broken")
	}
	z := ws.ZeroSlot(0, 10)
	for _, v := range z {
		if v != 0 {
			t.Fatal("ZeroSlot left data")
		}
	}
}

func TestEnsure(t *testing.T) {
	a := New(2, 3)
	if Ensure(a, 2, 3) != a {
		t.Fatal("Ensure should reuse matching tensor")
	}
	b := Ensure(a, 3, 2)
	if b == a {
		t.Fatal("Ensure must not reuse mismatched shape")
	}
	if c := Ensure(nil, 4); c == nil || c.Len() != 4 {
		t.Fatal("Ensure(nil) should allocate")
	}
}
