package tensor

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// propShapes are deliberately awkward: 1 exercises degenerate loops, 3 and 7
// the scalar tails (below one SIMD vector), 65 and 129 the
// one-past-a-power-of-two cases that hit both the 16-wide main loop, the
// 8-wide block and the scalar tail of the assembly kernels.
var propShapes = []int{1, 3, 7, 65, 129}

// refMatMul is an order-obvious reference: out[i][j] = Σ_k a[i][k]*b[k][j]
// accumulated in float64 to give a tolerance anchor for the FMA kernels.
func refMatMul(a, b *Matrix) *Matrix {
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

func maxRelErr(got, want *Matrix) float64 {
	var worst float64
	for i, v := range got.Data {
		w := want.Data[i]
		d := math.Abs(float64(v - w))
		scale := 1 + math.Abs(float64(w))
		if e := d / scale; e > worst {
			worst = e
		}
	}
	return worst
}

func TestMatMulPropertyOddShapes(t *testing.T) {
	rng := NewRNG(101)
	for _, n := range propShapes {
		for _, k := range propShapes {
			for _, m := range propShapes {
				a := randomMatrix(rng, n, k)
				b := randomMatrix(rng, k, m)
				got := New(n, m)
				MatMul(got, a, b)
				want := refMatMul(a, b)
				if e := maxRelErr(got, want); e > 1e-5 {
					t.Fatalf("MatMul %dx%dx%d: max rel err %g", n, k, m, e)
				}
			}
		}
	}
}

func TestMatMulTransBPropertyOddShapes(t *testing.T) {
	rng := NewRNG(102)
	for _, n := range propShapes {
		for _, k := range propShapes {
			for _, m := range propShapes {
				a := randomMatrix(rng, n, k)
				b := randomMatrix(rng, m, k)
				got := New(n, m)
				MatMulTransB(got, a, b)
				want := refMatMul(a, transposed(b))
				if e := maxRelErr(got, want); e > 1e-5 {
					t.Fatalf("MatMulTransB %dx%dx%d: max rel err %g", n, k, m, e)
				}
			}
		}
	}
}

func TestMatMulTransAPropertyOddShapes(t *testing.T) {
	rng := NewRNG(103)
	for _, n := range propShapes {
		for _, k := range propShapes {
			for _, m := range propShapes {
				a := randomMatrix(rng, k, n)
				b := randomMatrix(rng, k, m)
				got := New(n, m)
				MatMulTransA(got, a, b)
				want := refMatMul(transposed(a), b)
				if e := maxRelErr(got, want); e > 1e-5 {
					t.Fatalf("MatMulTransA %dx%dx%d: max rel err %g", n, k, m, e)
				}
			}
		}
	}
}

// TestKernelsSkipZeroPanels pins the dropout-sparsity fast path: zeroed
// four-entry panels of a must not perturb the result.
func TestKernelsSkipZeroPanels(t *testing.T) {
	rng := NewRNG(104)
	a := randomMatrix(rng, 65, 129)
	for i := range a.Data {
		if rng.Float32() < 0.5 {
			a.Data[i] = 0
		}
	}
	b := randomMatrix(rng, 129, 65)
	got := New(65, 65)
	MatMul(got, a, b)
	if e := maxRelErr(got, refMatMul(a, b)); e > 1e-5 {
		t.Fatalf("sparse MatMul: max rel err %g", e)
	}
}

func TestVectorPrimitives(t *testing.T) {
	rng := NewRNG(105)
	for _, n := range []int{0, 1, 7, 8, 15, 16, 17, 129} {
		dst := make([]float32, n)
		src := make([]float32, n)
		want := make([]float32, n)
		for i := 0; i < n; i++ {
			dst[i] = rng.Float32()
			src[i] = rng.Float32()
			want[i] = dst[i] + 2.5*src[i]
		}
		Axpy(dst, src, 2.5)
		for i := range dst {
			if math.Abs(float64(dst[i]-want[i])) > 1e-5 {
				t.Fatalf("Axpy n=%d elem %d: got %v want %v", n, i, dst[i], want[i])
			}
		}
		AddTo(dst, src)
		for i := range dst {
			if math.Abs(float64(dst[i]-(want[i]+src[i]))) > 1e-5 {
				t.Fatalf("AddTo n=%d elem %d", n, i)
			}
		}
	}
}

func TestWorkspaceReusesSteadyState(t *testing.T) {
	ws := NewWorkspace()
	m1 := ws.Get(33, 17)
	p1 := &m1.Data[0]
	ws.Reset()
	m2 := ws.Get(33, 17)
	if &m2.Data[0] != p1 {
		t.Fatal("workspace did not reuse the buffer after Reset")
	}
	// Distinctness within one cycle.
	m3 := ws.Get(33, 17)
	if &m3.Data[0] == &m2.Data[0] {
		t.Fatal("workspace handed out the same buffer twice without Reset")
	}
	ws.Reset()
	// Shapes may move from pass to pass: a position keeps the capacity of
	// the largest shape it has held (plus headroom), so a pass that asks for
	// less, or for a little more, allocates nothing.
	rows := 33
	allocs := testing.AllocsPerRun(10, func() {
		ws.Get(rows, 17)
		ws.Get(33, 17)
		ws.Reset()
		rows = 30 + (rows+1)%6 // 30..35, inside 33 rows' headroom
	})
	if allocs > 0 {
		t.Fatalf("steady-state workspace cycle allocates %v objects", allocs)
	}
}

func TestWorkspaceZeroSizes(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Get(0, 5)
	if m.Rows != 0 || len(m.Data) != 0 {
		t.Fatal("zero-row matrix malformed")
	}
	ws.Reset()
}

// forcePool sets the kernel pool width for one test.
func forcePool(t *testing.T, width int) {
	t.Cleanup(ForceParallelism(width))
}

// TestDispatchCoversAllRows drives the dispatcher directly, inline (pool
// width 1) and pooled, over ranges, scattered lists and clamped chunk lists:
// every row must reach the body exactly once, in pieces of at most rowBlock.
func TestDispatchCoversAllRows(t *testing.T) {
	for _, width := range []int{1, 4} {
		forcePool(t, width)
		for _, n := range []int{0, 1, rowBlock, rowBlock + 1, 10*rowBlock + 3} {
			counts := make([]int32, n+5)
			body := func(rows []int32) {
				if len(rows) == 0 || len(rows) > rowBlock {
					t.Errorf("width %d: body handed %d rows", width, len(rows))
				}
				for _, r := range rows {
					atomic.AddInt32(&counts[r], 1)
				}
			}
			check := func(name string, lo, hi int) {
				t.Helper()
				for i := range counts {
					want := int32(0)
					if i >= lo && i < hi {
						want = 1
					}
					if c := atomic.SwapInt32(&counts[i], 0); c != want {
						t.Fatalf("width %d n=%d %s: row %d covered %d times, want %d", width, n, name, i, c, want)
					}
				}
			}
			ForRange(0, n, body)
			check("range", 0, n)
			ForRange(n/3, n, body)
			check("subrange", n/3, n)
			reversed := make([]int32, n)
			for i := range reversed {
				reversed[i] = int32(n - 1 - i)
			}
			ForRows(reversed, body)
			check("list", 0, n)
			// Chunk lists: single-row chunks, a boundary past the range (the
			// clamped tail), and a range that starts inside a chunk.
			chunks := []int32{0, int32(min(1, n)), int32(min(2, n)), int32(max(n/2, min(2, n))), int32(n + 5)}
			call := rowCall{kernel: kernelFunc, fn: body}
			dispatch(call, rowRange(0, n), spmmGrain, chunks)
			check("chunks", 0, n)
			dispatch(call, rowRange(n/3, n), spmmGrain, chunks)
			check("chunks/subrange", n/3, n)
		}
	}
}

// goroutineID returns the running goroutine's id, read off its stack header
// ("goroutine 7 [running]:").
func goroutineID() string {
	b := make([]byte, 64)
	return strings.Fields(string(b[:runtime.Stack(b, false)]))[1]
}

// TestPooledPanicReachesCaller: a body that panics on a pool worker hands its
// value to the goroutine that called the kernel instead of killing the
// process, and the pool runs the next call over every row.
func TestPooledPanicReachesCaller(t *testing.T) {
	forcePool(t, 4)
	caller := goroutineID()
	claimed := make(chan struct{})
	var once sync.Once
	body := func(rows []int32) {
		if goroutineID() == caller {
			// Hold the caller's unit until a worker has claimed the other,
			// so the panic is a worker's.
			select {
			case <-claimed:
			case <-time.After(10 * time.Second):
			}
			return
		}
		once.Do(func() { close(claimed) })
		panic(fmt.Sprintf("fault at row %d", rows[0]))
	}
	got := panicMessage(func() { ForRange(0, 2*rowBlock, body) })
	if got != "fault at row 0" && got != fmt.Sprintf("fault at row %d", rowBlock) {
		t.Fatalf("caller recovered %q, want the worker's panic", got)
	}

	const n = 10*rowBlock + 3
	counts := make([]int32, n)
	ForRange(0, n, func(rows []int32) {
		for _, r := range rows {
			atomic.AddInt32(&counts[r], 1)
		}
	})
	for r, c := range counts {
		if c != 1 {
			t.Fatalf("after the fault: row %d covered %d times, want 1", r, c)
		}
	}
}

// TestPooledGatherFaultReachesCaller: a 64-wide SpMM on the pooled path with
// one bad row id — in each claim unit in turn — panics on the caller with
// the gather's message, with and without AVX2, and the next SpMM gives the
// reference bits.
func TestPooledGatherFaultReachesCaller(t *testing.T) {
	forcePool(t, 4)
	rng := NewRNG(44)
	const n, nSrc, w = 12 * spmmGrain, 50, 64
	indptr, indices := randCSR(rng, n, nSrc, 9)
	x := randomMatrix(rng, nSrc, w)
	out := New(n, w)
	want := fmt.Sprintf("tensor: gather row %d outside [0,%d)", nSrc, nSrc)
	for r := 0; r < n; r += spmmGrain / 2 {
		e := indptr[r]
		if e == indptr[r+1] {
			continue
		}
		saved := indices[e]
		indices[e] = nSrc
		if got := panicMessage(func() { SpMM(out, x, indptr, indices, nil, nil) }); got != want {
			t.Errorf("bad id in row %d: panic %q, want %q", r, got, want)
		}
		withoutAVX2(func() {
			if got := panicMessage(func() { SpMM(out, x, indptr, indices, nil, nil) }); got != want {
				t.Errorf("bad id in row %d without AVX2: panic %q, want %q", r, got, want)
			}
		})
		indices[e] = saved
	}
	ref := New(n, w)
	refSpMM(ref, x, indptr, indices, nil)
	SpMM(out, x, indptr, indices, nil, nil)
	sameBitsF32(t, "after the faults", out.Data, ref.Data)
}

// TestContiguousCallsWalkBlocksInline pins the path a contiguous call of
// more than rowBlock rows takes at pool width 1: the whole range runs
// inline, one rowBlock-sized block of the shared ascending row table at a
// time. Every kernel must reproduce, bit for bit, what it computes one row
// per call.
func TestContiguousCallsWalkBlocksInline(t *testing.T) {
	forcePool(t, 1)
	rng := NewRNG(107)
	const n, in, out = 2*rowBlock + 37, 9, 13
	one := func(r int) []int32 { return []int32{int32(r)} }

	a := randomMatrix(rng, n, in)
	b := randomMatrix(rng, in, out)
	got, want := New(n, out), New(n, out)
	MatMul(got, a, b)
	for r := 0; r < n; r++ {
		MatMulRange(want, a, b, r, r+1)
	}
	sameBitsF32(t, "MatMul", got.Data, want.Data)

	bt := randomMatrix(rng, out, in)
	MatMulTransB(got, a, bt)
	for r := 0; r < n; r++ {
		MatMulTransBRange(want, a, bt, r, r+1)
	}
	sameBitsF32(t, "MatMulTransB", got.Data, want.Data)

	dPre := randomMatrix(rng, n, out)
	w := randomMatrix(rng, 2*in, out)
	dz, dSelf := New(n, in), New(n, in)
	wantZ, wantSelf := New(n, in), New(n, in)
	MatMulTransBSplit(dz, dSelf, dPre, w)
	for r := 0; r < n; r++ {
		MatMulTransBSplitRows(wantZ, wantSelf, dPre, w, one(r))
	}
	sameBitsF32(t, "MatMulTransBSplit/dz", dz.Data, wantZ.Data)
	sameBitsF32(t, "MatMulTransBSplit/dSelf", dSelf.Data, wantSelf.Data)

	indptr, indices := randCSR(rng, n, n, 11)
	scale := make([]float32, n)
	for i := range scale {
		scale[i] = rng.Float32()
	}
	h := randomMatrix(rng, n, in)
	agg, wantAgg := New(n, in), New(n, in)
	SpMM(agg, h, indptr, indices, scale, nil)
	refSpMM(wantAgg, h, indptr, indices, scale)
	sameBitsF32(t, "SpMM", agg.Data, wantAgg.Data)

	tIndptr, tSrc := transposeCSR(n, indptr, indices, n)
	dst, wantDst := New(n, in), New(n, in)
	SpMMTrans(dst, h, tIndptr, tSrc, scale, nil)
	refSpMMTrans(wantDst, h, indptr, indices, scale, n)
	sameBitsF32(t, "SpMMTrans", dst.Data, wantDst.Data)

	pre, z := New(n, out), New(n, in)
	wantPre, wantZed := New(n, out), New(n, in)
	SpMMMatMul(pre, z, h, w, indptr, indices, scale, nil)
	for r := 0; r < n; r++ {
		SpMMMatMulRows(wantPre, wantZed, h, w, indptr, indices, scale, one(r))
	}
	sameBitsF32(t, "SpMMMatMul/pre", pre.Data, wantPre.Data)
	sameBitsF32(t, "SpMMMatMul/z", z.Data, wantZed.Data)
}
