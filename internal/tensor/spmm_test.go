package tensor

import (
	"fmt"
	"math"
	"testing"
)

// randCSR builds a random CSR index with n rows over nCols source rows:
// each row draws a degree in [0, maxDeg] (with forced zero-degree rows
// sprinkled in), neighbors drawn with duplicates allowed — the adversarial
// shape for accumulation-order bugs.
func randCSR(rng *RNG, n, nSrc, maxDeg int) ([]int64, []int32) {
	indptr := make([]int64, n+1)
	var indices []int32
	for v := 0; v < n; v++ {
		indptr[v] = int64(len(indices))
		deg := rng.Intn(maxDeg + 1)
		if v%7 == 3 {
			deg = 0 // forced zero-degree rows
		}
		for e := 0; e < deg; e++ {
			indices = append(indices, int32(rng.Intn(nSrc)))
		}
	}
	indptr[n] = int64(len(indices))
	return indptr, indices
}

// refSpMMRow is the scalar reference: zero, sequential AddTo per edge, then
// the row rescale — the exact semantics SpMM documents.
func refSpMMRow(dst []float32, x *Matrix, nbrs []int32, s float32, scaled bool) {
	for j := range dst {
		dst[j] = 0
	}
	for _, u := range nbrs {
		AddTo(dst, x.Data[int(u)*x.Cols:int(u)*x.Cols+len(dst)])
	}
	if scaled {
		for j := range dst {
			dst[j] *= s
		}
	}
}

// refSpMM runs the reference over every row of a (possibly wider) out.
func refSpMM(out, x *Matrix, indptr []int64, indices []int32, scale []float32) {
	for r := 0; r < out.Rows; r++ {
		dst := out.Data[r*out.Cols : r*out.Cols+x.Cols]
		s := float32(0)
		if scale != nil {
			s = scale[r]
		}
		refSpMMRow(dst, x, indices[indptr[r]:indptr[r+1]], s, scale != nil)
	}
}

// refSpMMTrans is the reference backward: an ascending-source SCATTER with
// one sequential Axpy per edge — the formulation the gather kernel replaces.
// It must produce the gather's bits exactly.
func refSpMMTrans(dst, src *Matrix, indptr []int64, indices []int32, scale []float32, n int) {
	w := dst.Cols
	for v := 0; v < n; v++ {
		s := float32(1)
		if scale != nil {
			s = scale[v]
		}
		srow := src.Data[v*src.Cols : v*src.Cols+w]
		for _, u := range indices[indptr[v]:indptr[v+1]] {
			Axpy(dst.Data[int(u)*w:int(u)*w+w], srow, s)
		}
	}
}

// transposeCSR builds the incoming index (ascending sources) of a CSR.
func transposeCSR(n int, indptr []int64, indices []int32, nDst int) ([]int64, []int32) {
	cnt := make([]int64, nDst+1)
	for _, u := range indices {
		cnt[u+1]++
	}
	for i := 0; i < nDst; i++ {
		cnt[i+1] += cnt[i]
	}
	tIndptr := make([]int64, nDst+1)
	copy(tIndptr, cnt)
	tSrc := make([]int32, len(indices))
	fill := make([]int64, nDst)
	for v := 0; v < n; v++ {
		for _, u := range indices[indptr[v]:indptr[v+1]] {
			tSrc[tIndptr[u]+fill[u]] = int32(v)
			fill[u]++
		}
	}
	return tIndptr, tSrc
}

func sameBitsF32(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// spmmDims are deliberately awkward feature widths: below one SIMD vector,
// one past a vector, one past two (exercising the 16-wide loop, the 8-wide
// block and the scalar tail of the blocked kernels).
var spmmDims = []int{1, 3, 7, 8, 9, 17, 65}

// TestSpMMMatchesScalarReference pins the engine's forward kernel against
// the sequential per-edge reference, bit for bit, across feature widths and
// chunk layouts.
func TestSpMMMatchesScalarReference(t *testing.T) {
	rng := NewRNG(401)
	const n, nSrc = 53, 61
	indptr, indices := randCSR(rng, n, nSrc, 19)
	for _, dim := range spmmDims {
		x := randomMatrix(rng, nSrc, dim)
		scale := make([]float32, n)
		for i := range scale {
			scale[i] = rng.Float32()
		}
		want := New(n, dim)
		refSpMM(want, x, indptr, indices, scale)

		got := New(n, dim)
		SpMM(got, x, indptr, indices, scale, nil)
		sameBitsF32(t, "SpMM/nil-chunks", got.Data, want.Data)

		// Adversarial chunk layouts, including single-row chunks.
		for _, chunks := range [][]int32{
			{0, int32(n)},
			{0, 1, 2, 3, int32(n)},
			{0, 13, 17, 40, int32(n)},
		} {
			got.Zero()
			SpMM(got, x, indptr, indices, scale, chunks)
			sameBitsF32(t, "SpMM/chunks", got.Data, want.Data)
		}

		// Unscaled form.
		refSpMM(want, x, indptr, indices, nil)
		SpMM(got, x, indptr, indices, nil, nil)
		sameBitsF32(t, "SpMM/unscaled", got.Data, want.Data)
	}
}

// TestSpMMWideDestination pins the strided-destination contract: a
// destination wider than x leaves the extra columns untouched (the SAGE
// concat layout).
func TestSpMMWideDestination(t *testing.T) {
	rng := NewRNG(402)
	const n, nSrc, dim = 23, 29, 7
	indptr, indices := randCSR(rng, n, nSrc, 9)
	x := randomMatrix(rng, nSrc, dim)
	scale := make([]float32, n)
	for i := range scale {
		scale[i] = rng.Float32()
	}
	out := randomMatrix(rng, n, 2*dim)
	keep := append([]float32(nil), out.Data...)
	SpMM(out, x, indptr, indices, scale, nil)
	want := New(n, dim)
	refSpMM(want, x, indptr, indices, scale)
	for r := 0; r < n; r++ {
		sameBitsF32(t, "left-half", out.Row(r)[:dim], want.Row(r))
		sameBitsF32(t, "right-half-untouched", out.Row(r)[dim:], keep[r*2*dim+dim:(r+1)*2*dim])
	}
}

// TestSpMMTransMatchesScatterReference pins the backward gather against the
// ascending-source scatter it replaces: same bits for full, range, and
// row-subset entry points, scaled and unscaled, with the source matrix wider
// than the destination (the dConcat layout).
func TestSpMMTransMatchesScatterReference(t *testing.T) {
	rng := NewRNG(403)
	const n, nDst = 47, 59
	indptr, indices := randCSR(rng, n, nDst, 15)
	tIndptr, tSrc := transposeCSR(n, indptr, indices, nDst)
	for _, dim := range spmmDims {
		src := randomMatrix(rng, n, dim+3) // wider than dst: prefix gathered
		scale := make([]float32, n)
		for i := range scale {
			scale[i] = rng.Float32()
		}
		init := randomMatrix(rng, nDst, dim) // caller-owned initialization

		want := New(nDst, dim)
		copy(want.Data, init.Data)
		refSpMMTrans(want, src, indptr, indices, scale, n)

		got := New(nDst, dim)
		copy(got.Data, init.Data)
		SpMMTrans(got, src, tIndptr, tSrc, scale, nil)
		sameBitsF32(t, "SpMMTrans/nil-chunks", got.Data, want.Data)

		copy(got.Data, init.Data)
		SpMMTrans(got, src, tIndptr, tSrc, scale, []int32{0, 7, 8, 31, nDst})
		sameBitsF32(t, "SpMMTrans/chunks", got.Data, want.Data)

		// Split destinations across two dynamically claimed ranges.
		copy(got.Data, init.Data)
		SpMMTransRange(got, src, tIndptr, tSrc, scale, nil, 0, 20)
		SpMMTransRange(got, src, tIndptr, tSrc, scale, nil, 20, nDst)
		sameBitsF32(t, "SpMMTransRange/split", got.Data, want.Data)

		// Range with a clamped chunk index.
		copy(got.Data, init.Data)
		SpMMTransRange(got, src, tIndptr, tSrc, scale, []int32{0, 13, 44, nDst}, 0, 25)
		SpMMTransRange(got, src, tIndptr, tSrc, scale, []int32{0, 13, 44, nDst}, 25, nDst)
		sameBitsF32(t, "SpMMTransRange/chunked", got.Data, want.Data)

		// Unscaled form.
		copy(want.Data, init.Data)
		refSpMMTrans(want, src, indptr, indices, nil, n)
		copy(got.Data, init.Data)
		SpMMTrans(got, src, tIndptr, tSrc, nil, nil)
		sameBitsF32(t, "SpMMTrans/unscaled", got.Data, want.Data)
	}
}

// TestSpMMMegaRow pins the edge-balanced contract on a pathological graph:
// one row holding most of the edges, isolated in its own chunk, must still
// produce the reference bits.
func TestSpMMMegaRow(t *testing.T) {
	rng := NewRNG(404)
	const n, nSrc, dim = 33, 40, 9
	indptr := make([]int64, n+1)
	var indices []int32
	for v := 0; v < n; v++ {
		indptr[v] = int64(len(indices))
		deg := 2
		if v == 11 {
			deg = 900 // the mega row
		}
		for e := 0; e < deg; e++ {
			indices = append(indices, int32(rng.Intn(nSrc)))
		}
	}
	indptr[n] = int64(len(indices))
	x := randomMatrix(rng, nSrc, dim)
	want := New(n, dim)
	refSpMM(want, x, indptr, indices, nil)
	got := New(n, dim)
	SpMM(got, x, indptr, indices, nil, []int32{0, 11, 12, n})
	sameBitsF32(t, "mega-row", got.Data, want.Data)
}

// TestGatherPrimitives pins the exported row-level gathers against their
// sequential references.
func TestGatherPrimitives(t *testing.T) {
	rng := NewRNG(405)
	for _, dim := range spmmDims {
		x := randomMatrix(rng, 31, dim)
		nbrs := make([]int32, 13)
		coef := make([]float32, 13)
		for i := range nbrs {
			nbrs[i] = int32(rng.Intn(31))
			coef[i] = rng.Float32() - 0.5
		}

		want := make([]float32, dim)
		got := make([]float32, dim)
		for j := 0; j < dim; j++ {
			want[j] = rng.Float32()
			got[j] = want[j]
		}
		for i, u := range nbrs {
			Axpy(want, x.Row(int(u)), coef[i])
		}
		GatherAxpy(got, x, nbrs, coef)
		sameBitsF32(t, "GatherAxpy", got, want)

		for j := range want {
			want[j] = 0
		}
		for _, u := range nbrs {
			AddTo(want, x.Row(int(u)))
		}
		GatherSum(got, x, nbrs)
		sameBitsF32(t, "GatherSum", got, want)

		a := make([]float32, dim)
		for j := range a {
			a[j] = rng.Float32() - 0.5
		}
		dots, want := make([]float32, len(nbrs)), make([]float32, len(nbrs))
		GatherDots(dots, a, x, nbrs)
		for i, u := range nbrs {
			want[i] = Dot(a, x.Row(int(u))) // every dot has Dot's bits
		}
		sameDotBits(t, fmt.Sprintf("GatherDots dim=%d", dim), dots, want, dim)
	}
}

// TestGatherRejectsOutOfRange: every gather names the row id or width that
// would read outside its source — a destination (or GatherDots' a) wider
// than x's rows, and a GatherDots output shorter than its row list, before
// any kernel runs; and row −1, row x.Rows and row MaxInt32 at every term
// position (the four lanes of a panel and a single), through every entry
// point, at widths no row kernel runs (4) and where one runs with 1, 2 and 8
// lanes, 8+1 lanes and a scalar tail — with the same message as the scalar
// fallback's.
func TestGatherRejectsOutOfRange(t *testing.T) {
	const rows = 3
	for _, w := range []int{4, 8, 16, 64, 67, 72} {
		x := New(rows, w)
		proj := New(2*w, 8) // SpMMMatMul's w: the gathered half, then the self half
		entries := map[string]func(nbrs []int32){
			"GatherAdd":  func(nbrs []int32) { GatherAdd(make([]float32, w), x, nbrs) },
			"GatherAxpy": func(nbrs []int32) { GatherAxpy(make([]float32, w), x, nbrs, make([]float32, len(nbrs))) },
			"GatherDots": func(nbrs []int32) { GatherDots(make([]float32, len(nbrs)), make([]float32, w), x, nbrs) },
			"SpMM": func(nbrs []int32) {
				SpMM(New(1, w), x, []int64{0, int64(len(nbrs))}, nbrs, []float32{0.5}, nil)
			},
			"SpMMTrans": func(nbrs []int32) {
				SpMMTrans(New(1, w), x, []int64{0, int64(len(nbrs))}, nbrs, make([]float32, rows), nil)
			},
			"SpMMTrans unscaled": func(nbrs []int32) {
				SpMMTrans(New(1, w), x, []int64{0, int64(len(nbrs))}, nbrs, nil, nil)
			},
			"SpMMMatMul": func(nbrs []int32) {
				SpMMMatMul(New(1, 8), New(1, w), x, proj, []int64{0, int64(len(nbrs))}, nbrs, nil, nil)
			},
		}
		for name, fn := range entries {
			for _, bad := range []int32{-1, rows, math.MaxInt32} {
				for pos := 0; pos < 5; pos++ {
					nbrs := []int32{0, 1, 2, 1, 0}
					nbrs[pos] = bad
					want := fmt.Sprintf("tensor: gather row %d outside [0,%d)", bad, rows)
					if got := panicMessage(func() { fn(nbrs) }); got != want {
						t.Errorf("w=%d %s row %d at term %d: panic %q, want %q", w, name, bad, pos, got, want)
					}
					withoutAVX2(func() {
						if got := panicMessage(func() { fn(nbrs) }); got != want {
							t.Errorf("w=%d %s row %d at term %d without AVX2: panic %q, want %q", w, name, bad, pos, got, want)
						}
					})
				}
			}
			if got := panicMessage(func() { fn([]int32{0, 1, 2, 1, 0}) }); got != "" {
				t.Errorf("w=%d %s in-range rows: panic %q", w, name, got)
			}
		}
	}

	x := New(3, 4)
	wide := map[string]func(vec []float32){
		"GatherAdd":  func(vec []float32) { GatherAdd(vec, x, []int32{0, 1}) },
		"GatherAxpy": func(vec []float32) { GatherAxpy(vec, x, []int32{0, 1}, make([]float32, 2)) },
		"GatherDots": func(vec []float32) { GatherDots(make([]float32, 2), vec, x, []int32{0, 1}) },
	}
	for g, fn := range wide {
		if got, want := panicMessage(func() { fn(make([]float32, 8)) }), "tensor: gather width 8 > source width 4"; got != want {
			t.Errorf("%s wider than x: panic %q, want %q", g, got, want)
		}
	}
	short := func() { GatherDots(make([]float32, 1), make([]float32, 4), x, []int32{0, 1}) }
	if got, want := panicMessage(short), "tensor: GatherDots out len 1 < 2 rows"; got != want {
		t.Errorf("GatherDots short out: panic %q, want %q", got, want)
	}
}

// TestSparseShapePanics: each sparse entry point names the operand whose
// shape would make it read or write outside a matrix, and both lengths,
// before any row runs — SpMMTrans's per-source scale included, which its
// kernel reads at every source row id.
func TestSparseShapePanics(t *testing.T) {
	x, out := New(5, 8), New(4, 8)
	indptr, indices := []int64{0, 1, 2, 3, 4, 5}, []int32{0, 1, 2, 3, 4}
	cases := []struct {
		name string
		fn   func()
		want string
	}{
		{"SpMM narrow out", func() { SpMM(New(4, 4), x, indptr, indices, nil, nil) },
			"tensor: SpMM out width 4 < x width 8"},
		{"SpMM short indptr", func() { SpMM(out, x, indptr[:3], indices, nil, nil) },
			"tensor: SpMM indptr len 3, need 5"},
		{"SpMM short scale", func() { SpMM(out, x, indptr, indices, make([]float32, 3), nil) },
			"tensor: SpMM scale len 3, need 4"},
		{"SpMMTrans narrow src", func() { SpMMTrans(out, New(5, 4), indptr, indices, nil, nil) },
			"tensor: SpMMTransRange src width 4 < dst width 8"},
		{"SpMMTrans short indptr", func() { SpMMTrans(out, x, indptr[:4], indices, nil, nil) },
			"tensor: SpMMTransRange indptr len 4, need 5"},
		{"SpMMTrans short scale", func() { SpMMTrans(out, x, indptr, indices, make([]float32, 4), nil) },
			"tensor: SpMMTransRange scale len 4 < src rows 5"},
		{"SpMMTransRange rows", func() { SpMMTransRange(out, x, indptr, indices, nil, nil, 2, 5) },
			"tensor: SpMMTransRange rows [2,5) outside [0,4)"},
	}
	for _, c := range cases {
		if got := panicMessage(c.fn); got != c.want {
			t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
		}
	}
}

// panicMessage runs fn and returns what it panicked with, formatted, or ""
// if it returned.
func panicMessage(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestSpMMParallelPathMatchesSerial forces the worker-pool branch (the
// serial guards skip it on 1-CPU hosts) and checks the chunk-claimed
// execution still produces the reference bits.
func TestSpMMParallelPathMatchesSerial(t *testing.T) {
	saved := maxProcs
	maxProcs = 4
	defer func() { maxProcs = saved }()

	rng := NewRNG(406)
	const n, nSrc, dim = 97, 83, 17
	indptr, indices := randCSR(rng, n, nSrc, 21)
	x := randomMatrix(rng, nSrc, dim)
	scale := make([]float32, n)
	for i := range scale {
		scale[i] = rng.Float32()
	}
	want := New(n, dim)
	refSpMM(want, x, indptr, indices, scale)

	got := New(n, dim)
	SpMM(got, x, indptr, indices, scale, []int32{0, 5, 40, 41, 77, n})
	sameBitsF32(t, "parallel/chunks", got.Data, want.Data)
	got.Zero()
	SpMM(got, x, indptr, indices, scale, nil)
	sameBitsF32(t, "parallel/grain", got.Data, want.Data)

	tIndptr, tSrc := transposeCSR(n, indptr, indices, nSrc)
	src := randomMatrix(rng, n, dim)
	wantT := New(nSrc, dim)
	refSpMMTrans(wantT, src, indptr, indices, scale, n)
	gotT := New(nSrc, dim)
	SpMMTrans(gotT, src, tIndptr, tSrc, scale, []int32{0, 11, 30, nSrc})
	sameBitsF32(t, "parallel/trans", gotT.Data, wantT.Data)
}
