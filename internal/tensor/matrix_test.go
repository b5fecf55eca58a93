package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func randomMatrix(rng *RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero data")
		}
	}
}

func TestNewFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFrom(2, 2, []float32{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row(1)[2] = %v", row[2])
	}
	row[0] = 3 // Row shares storage
	if m.At(1, 0) != 3 {
		t.Fatal("Row must share storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(2, 2)
	m.Fill(1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := NewFrom(2, 2, []float32{1, 2, 3, 4})
	b := NewFrom(2, 2, []float32{10, 20, 30, 40})
	a.Add(b)
	want := []float32{11, 22, 33, 44}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("Add[%d] = %v want %v", i, a.Data[i], w)
		}
	}
	a.Sub(b)
	for i, w := range []float32{1, 2, 3, 4} {
		if a.Data[i] != w {
			t.Fatalf("Sub[%d] = %v want %v", i, a.Data[i], w)
		}
	}
	a.Scale(2)
	if a.At(1, 1) != 8 {
		t.Fatalf("Scale: %v", a.At(1, 1))
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestNorms(t *testing.T) {
	m := NewFrom(1, 2, []float32{3, 4})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("FrobeniusNorm = %v", got)
	}
	if got := m.Sum(); got != 7 {
		t.Fatalf("Sum = %v", got)
	}
	m.Set(0, 0, -9)
	if m.MaxAbs() != 9 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestGatherRows(t *testing.T) {
	src := NewFrom(3, 2, []float32{1, 1, 2, 2, 3, 3})
	g := GatherRows(src, []int32{2, 0, 2})
	want := []float32{3, 3, 1, 1, 3, 3}
	for i, w := range want {
		if g.Data[i] != w {
			t.Fatalf("Gather[%d] = %v want %v", i, g.Data[i], w)
		}
	}
}

// naiveMatMul is the reference implementation for property tests.
// transposed returns aᵀ as a new matrix, one element at a time: the
// reference the transposed-operand products are checked against.
func transposed(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := NewRNG(1)
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(70)
		k := 1 + rng.Intn(70)
		m := 1 + rng.Intn(70)
		a := randomMatrix(rng, n, k)
		b := randomMatrix(rng, k, m)
		out := New(n, m)
		MatMul(out, a, b)
		want := naiveMatMul(a, b)
		if !out.Equal(want, 1e-3) {
			t.Fatalf("trial %d (%dx%dx%d): MatMul mismatch", trial, n, k, m)
		}
	}
}

func TestMatMulLargeParallel(t *testing.T) {
	rng := NewRNG(2)
	a := randomMatrix(rng, 300, 40)
	b := randomMatrix(rng, 40, 50)
	out := New(300, 50)
	MatMul(out, a, b)
	want := naiveMatMul(a, b)
	if !out.Equal(want, 1e-3) {
		t.Fatal("parallel MatMul mismatch")
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := NewRNG(3)
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(40)
		m := 1 + rng.Intn(40)
		a := randomMatrix(rng, n, k)
		b := randomMatrix(rng, m, k)
		out := New(n, m)
		MatMulTransB(out, a, b)
		want := naiveMatMul(a, transposed(b))
		if !out.Equal(want, 1e-3) {
			t.Fatalf("trial %d: MatMulTransB mismatch", trial)
		}
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := NewRNG(4)
	for trial := 0; trial < 10; trial++ {
		k := 1 + rng.Intn(400) // exercise the parallel reduction path
		n := 1 + rng.Intn(30)
		m := 1 + rng.Intn(30)
		a := randomMatrix(rng, k, n)
		b := randomMatrix(rng, k, m)
		out := New(n, m)
		MatMulTransA(out, a, b)
		want := naiveMatMul(transposed(a), b)
		if !out.Equal(want, 1e-2) {
			t.Fatalf("trial %d (k=%d): MatMulTransA mismatch", trial, k)
		}
	}
}

// TestMatMulTransAAtMatchesDenseOperands: reducing a selection of a dense
// block's rows gives the bits MatMulTransA gives at pool width 1 on the dense
// operands whose unselected rows are zero (in b alone, or in both) — at every
// selection shape, at every pool width (the output rows fewer than, equal to
// and not divisible by it), at widths with and without a scalar tail.
func TestMatMulTransAAtMatchesDenseOperands(t *testing.T) {
	rng := NewRNG(15)
	for _, tc := range []struct{ r0, n, cols, m int }{
		{0, 9, 3, 5}, {7, 30, 5, 13}, {40, 300, 6, 7}, {301, 900, 9, 16}, {130, 131, 4, 33},
	} {
		for _, sel := range []string{"none", "first", "last", "one", "tenth", "half", "runs", "all"} {
			var at []int32
			for v := 0; v < tc.n; v++ {
				var on bool
				switch sel {
				case "first":
					on = v == 0
				case "last":
					on = v == tc.n-1
				case "one":
					on = v == tc.n/2
				case "tenth":
					on = rng.Float32() < 0.1
				case "half":
					on = rng.Float32() < 0.5
				case "runs":
					on = v/5%2 == 0
				case "all":
					on = true
				}
				if on {
					at = append(at, int32(v))
				}
			}
			rows := tc.r0 + len(at)
			a, b := randomMatrix(rng, rows, tc.cols), randomMatrix(rng, rows, tc.m)
			// The dense operands: b zero where unselected; a zero there
			// in one reference and arbitrary in the other.
			da, dz, db := randomMatrix(rng, tc.r0+tc.n, tc.cols), New(tc.r0+tc.n, tc.cols), New(tc.r0+tc.n, tc.m)
			for i := 0; i < rows; i++ {
				v := i
				if i >= tc.r0 {
					v = tc.r0 + int(at[i-tc.r0])
				}
				copy(da.Row(v), a.Row(i))
				copy(dz.Row(v), a.Row(i))
				copy(db.Row(v), b.Row(i))
			}
			wantZ, wantA := New(tc.cols, tc.m), New(tc.cols, tc.m)
			restore := ForceParallelism(1)
			MatMulTransA(wantZ, dz, db)
			MatMulTransA(wantA, da, db)
			restore()
			for _, width := range []int{1, 2, 3, 4, 8} {
				got := New(tc.cols, tc.m)
				restore := ForceParallelism(width)
				MatMulTransAAt(got, a, b, at, tc.n)
				restore()
				for _, want := range []*Matrix{wantZ, wantA} {
					sameBitsF32(t, fmt.Sprintf("width %d %+v %s", width, tc, sel), got.Data, want.Data)
				}
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m := randomMatrix(rng, 1+rng.Intn(20), 1+rng.Intn(20))
		return transposed(transposed(m)).Equal(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(4, 2))
}

// A reduction's body takes its rows as bounds, so dispatch must never be
// handed anything but a range for one.
func TestReductionRejectsRowList(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	call := rowCall{kernel: kernelMatMulTransA, out: New(3, 2), a: New(4, 3), b: New(4, 2)}
	dispatch(call, []int32{0, 2}, 2, nil)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds should diverge")
	}
}

// TestRNGSkipEqualsDiscardedDraws: Skip(n) leaves the generator exactly
// where n discarded Uint64 draws do — same State(), same next values. 2⁴⁰
// cannot be drawn out, so it is checked as 2²⁰ skips of 2²⁰, each of which
// is checked against real draws.
func TestRNGSkipEqualsDiscardedDraws(t *testing.T) {
	const cols = 64
	for _, seed := range []uint64{0, 1, 0xdeadbeefcafe} {
		for _, n := range []uint64{0, 1, cols, 1 << 20} {
			skipped, drawn := NewRNG(seed), NewRNG(seed)
			skipped.Uint64() // start mid-stream
			drawn.Uint64()
			skipped.Skip(n)
			for i := uint64(0); i < n; i++ {
				drawn.Uint64()
			}
			if skipped.State() != drawn.State() {
				t.Fatalf("seed %d: Skip(%d) state %#x, %d draws leave %#x", seed, n, skipped.State(), n, drawn.State())
			}
			for i := 0; i < 4; i++ {
				if a, b := skipped.Float32(), drawn.Float32(); a != b {
					t.Fatalf("seed %d: draw %d after Skip(%d) = %v, after %d draws = %v", seed, i, n, a, n, b)
				}
			}
		}
		far, stepped := NewRNG(seed), NewRNG(seed)
		far.Skip(1 << 40)
		for i := 0; i < 1<<20; i++ {
			stepped.Skip(1 << 20)
		}
		if far.State() != stepped.State() || far.Uint64() != stepped.Uint64() {
			t.Fatalf("seed %d: Skip(2^40) differs from 2^20 skips of 2^20", seed)
		}
	}
}

func TestRNGFloatRanges(t *testing.T) {
	rng := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if f := rng.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if f := rng.Float32(); f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(8)
	const n = 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewRNG(9)
	p := rng.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatal("duplicate in Perm")
		}
		seen[v] = true
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := NewRNG(10)
	m := New(30, 40)
	XavierInit(m, 30, 40, rng)
	bound := float32(math.Sqrt(6.0/70.0)) + 1e-6
	for _, v := range m.Data {
		if v < -bound || v > bound {
			t.Fatalf("Xavier value %v outside ±%v", v, bound)
		}
	}
	if m.MaxAbs() == 0 {
		t.Fatal("Xavier produced all zeros")
	}
}

func TestIntnUniform(t *testing.T) {
	rng := NewRNG(11)
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[rng.Intn(4)]++
	}
	for i, c := range counts {
		if c < 1600 || c > 2400 {
			t.Fatalf("Intn bucket %d count %d far from uniform", i, c)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(12)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams overlap: %d identical draws", same)
	}
}

func TestEqualTolerance(t *testing.T) {
	a := NewFrom(1, 2, []float32{1, 2})
	b := NewFrom(1, 2, []float32{1.0005, 2})
	if !a.Equal(b, 1e-3) {
		t.Fatal("Equal should accept within tolerance")
	}
	if a.Equal(b, 1e-5) {
		t.Fatal("Equal should reject outside tolerance")
	}
	if a.Equal(New(2, 1), 1) {
		t.Fatal("Equal must reject shape mismatch")
	}
}
