package tensor

import "fmt"

// Sparse aggregation engine: CSR SpMM kernels for the graph layers' neighbor
// aggregation (forward Z = scale·A·H, backward dH = Aᵀ·scale·dZ as a gather
// over the transposed index), mirroring the dense MatMul* family.
//
// Reference semantics. Each output row is defined by a sequential per-edge
// walk built on the vector primitives:
//
//	SpMM row r:       zero; for each e in CSR row r: AddTo(dst, x.Row(u_e));
//	                  then dst *= scale[r]
//	SpMMTrans row r:  for each e in transposed row r: Axpy(dst, src.Row(v_e),
//	                  scale[v_e])        (dst is NOT zeroed: the caller owns
//	                  the initialization — zero, or a self term)
//
// The kernels below sum a row's edges with the row kernels (rowacc.go:
// GatherAdd, and gatherScaled, which reads scale[v] at each source's id)
// instead, and that is bit-identical to the sequential walk: the row is held
// in registers across all its edges, four FMAs chained into one accumulator
// per four edges in source order (fma(1,x,acc) ≡ acc+x exactly, so the unit
// case reproduces AddTo), and the scalar tails add one term at a time like
// AddTo and Axpy. Accumulation order per *element* only depends on
// per-element operation order, which neither the blocking nor the registers
// change. The property tests pin kernel ≡ reference on odd/prime shapes,
// zero-degree rows, and random row partitions.
//
// Parallelism. Rows are fully independent (each output row reads only its
// own CSR segment and writes only itself), so any duplicate-free partition of
// the row space is bit-identical in any execution order. Every entry point
// runs the kernel's one per-row body through dispatch (matmul.go). The
// full-pass entries take an optional edge-balanced chunk index (prefix-summed
// over indptr by graph.AggIndex so one mega-degree row lands in its own chunk
// instead of serializing a worker's whole share), each chunk claimed whole;
// with chunks == nil, and for explicit row lists, rows are claimed
// spmmGrain at a time, which load-balances everything except a single mega
// row.

// GatherSum computes dst = Σ_i x.Row(nbrs[i]), walking the rows in order
// (bit-identical to sequential AddTo).
// len(dst) must equal x.Cols.
func GatherSum(dst []float32, x *Matrix, nbrs []int32) {
	for j := range dst {
		dst[j] = 0
	}
	GatherAdd(dst, x, nbrs)
}

// checkGather panics naming the first row id of idx outside [0, x.Rows) —
// the message every gather fails with. It is the fallback and the namer of a
// failure: the row kernels compare each id with x.Rows as they load it, so
// where one runs this walk runs only after the kernel refused an id
// (rowFault), and it checks a list itself only where no kernel runs —
// without AVX2, or for a row narrower than 8 floats (see gatherPrefix).
func checkGather(x *Matrix, idx []int32) {
	for _, u := range idx {
		if uint32(u) >= uint32(x.Rows) {
			panic(fmt.Sprintf("tensor: gather row %d outside [0,%d)", u, x.Rows))
		}
	}
}

// gatherPrefix rejects a row vector (the destination, or GatherDots' a)
// wider than x's rows, and returns the 8-aligned prefix of it that the row
// kernels compute; they check every row id of idx as they load it. Where
// that prefix is empty no kernel runs, and gatherPrefix checks the ids.
func gatherPrefix(vec []float32, x *Matrix, idx []int32) (n8 int) {
	if len(vec) > x.Cols {
		panic(fmt.Sprintf("tensor: gather width %d > source width %d", len(vec), x.Cols))
	}
	if useAVX2 && len(idx) > 0 && x.Rows > 0 && len(vec) >= 8 {
		return len(vec) &^ 7
	}
	checkGather(x, idx)
	return 0
}

// GatherAdd computes dst += Σ_i x.Row(nbrs[i])[:len(dst)] in list order, with
// per element the chain of sequential AddTo calls (see rowacc.go).
func GatherAdd(dst []float32, x *Matrix, nbrs []int32) {
	n, xd, ldx := len(dst), x.Data, x.Cols
	n8 := gatherPrefix(dst, x, nbrs)
	for s := 0; s < n8; s += rowStrip {
		if !sumRowsAVX2(&dst[s], min(n8-s, rowStrip)/8, &nbrs[0], len(nbrs), &xd[s], ldx, x.Rows) {
			rowFault(x, nbrs)
		}
	}
	if n8 == n {
		return
	}
	for _, u := range nbrs {
		src := xd[int(u)*ldx:][:n]
		for j := n8; j < n; j++ {
			dst[j] += src[j]
		}
	}
}

// GatherAxpy computes dst += Σ_i coef[i]·x.Row(nbrs[i]) in list order
// (bit-identical to sequential Axpy calls; no zero skip). len(coef) must be
// ≥ len(nbrs); len(dst) must be ≤ x.Cols (a prefix of each source row is
// gathered).
func GatherAxpy(dst []float32, x *Matrix, nbrs []int32, coef []float32) {
	n, xd, ldx := len(dst), x.Data, x.Cols
	coef = coef[:len(nbrs)]
	n8 := gatherPrefix(dst, x, nbrs)
	for s := 0; s < n8; s += rowStrip {
		if !axpyRowsAVX2(&dst[s], min(n8-s, rowStrip)/8, &nbrs[0], len(nbrs), &xd[s], ldx, x.Rows, &coef[0], 1, 0) {
			rowFault(x, nbrs)
		}
	}
	if n8 == n {
		return
	}
	for t, u := range nbrs {
		a, src := coef[t], xd[int(u)*ldx:][:n]
		for j := n8; j < n; j++ {
			dst[j] += a * src[j]
		}
	}
}

// gatherScaled computes dst += Σ_i scale[nbrs[i]]·x.Row(nbrs[i])[:len(dst)]
// in list order: GatherAxpy with each coefficient read at its row's id, so
// with GatherAxpy's bits and no coefficient list. len(scale) must be ≥
// x.Rows.
func gatherScaled(dst []float32, x *Matrix, nbrs []int32, scale []float32) {
	n, xd, ldx := len(dst), x.Data, x.Cols
	n8 := gatherPrefix(dst, x, nbrs)
	if n8 > 0 {
		_ = scale[x.Rows-1] // every id the kernel passes has its scale entry
	}
	for s := 0; s < n8; s += rowStrip {
		if !scaledRowsAVX2(&dst[s], min(n8-s, rowStrip)/8, &nbrs[0], len(nbrs), &xd[s], ldx, x.Rows, &scale[0]) {
			rowFault(x, nbrs)
		}
	}
	if n8 == n {
		return
	}
	for _, u := range nbrs {
		a, src := scale[u], xd[int(u)*ldx:][:n]
		for j := n8; j < n; j++ {
			dst[j] += a * src[j]
		}
	}
}

// GatherDots computes out[i] = Σ_j a[j]·x.Row(nbrs[i])[j] for every i, each
// dot with Dot's bits (see dotRows). len(out) must be ≥ len(nbrs) and len(a)
// ≤ x.Cols (a prefix of each row is dotted).
func GatherDots(out []float32, a []float32, x *Matrix, nbrs []int32) {
	gatherPrefix(a, x, nbrs)
	if len(out) < len(nbrs) {
		panic(fmt.Sprintf("tensor: GatherDots out len %d < %d rows", len(out), len(nbrs)))
	}
	dotRows(out, a, x, nbrs)
}

// checkSpMM validates the shared SpMM shape contract: one CSR row per output
// row, destination at least as wide as the gathered width.
func checkSpMM(name string, out, x *Matrix, indptr []int64, scale []float32) {
	if out.Cols < x.Cols {
		panic(fmt.Sprintf("tensor: %s out width %d < x width %d", name, out.Cols, x.Cols))
	}
	if len(indptr) < out.Rows+1 {
		panic(fmt.Sprintf("tensor: %s indptr len %d, need %d", name, len(indptr), out.Rows+1))
	}
	if scale != nil && len(scale) < out.Rows {
		panic(fmt.Sprintf("tensor: %s scale len %d, need %d", name, len(scale), out.Rows))
	}
}

// SpMM computes, for every row r in [0, out.Rows):
//
//	out.Row(r)[:x.Cols] = scale[r] · Σ_{e ∈ CSR row r} x.Row(indices[e])
//
// i.e. out = diag(scale)·A·x over the CSR adjacency (indptr, indices). scale
// == nil skips the rescale. out.Cols may exceed x.Cols: only the first
// x.Cols entries of each row are written (the layer tests' concat reference
// aggregates into the left half of its concat buffer). chunks, when non-nil,
// is an edge-balanced row-chunk boundary list (graph.AggIndex.Chunks):
// ascending, chunks[0] = 0, boundaries clamped to out.Rows, each chunk claimed
// whole by one worker. Rows are independent, so every execution strategy is
// bit-identical.
func SpMM(out, x *Matrix, indptr []int64, indices []int32, scale []float32, chunks []int32) {
	checkSpMM("SpMM", out, x, indptr, scale)
	dispatch(rowCall{kernel: kernelSpMM, out: out, a: x, indptr: indptr, indices: indices, scale: scale},
		rowRange(0, out.Rows), spmmGrain, chunks)
}

// spmmBlock computes the listed rows of SpMM: per row, dst[:w] = scale·Σ
// x.Row(u) over the CSR row's edges, in edge order.
func spmmBlock(out, x *Matrix, indptr []int64, indices []int32, scale []float32, rows []int32) {
	w := x.Cols
	for _, v := range rows {
		r := int(v)
		dst := out.Data[r*out.Cols : r*out.Cols+w]
		GatherSum(dst, x, indices[indptr[r]:indptr[r+1]])
		if scale != nil {
			s := scale[r]
			for j := range dst {
				dst[j] *= s
			}
		}
	}
}

// checkSpMMTrans validates the transposed contract: per-destination incoming
// lists, source matrix at least as wide as the destination, and a per-SOURCE
// scale with an entry for every source row (the kernel reads it at each row
// id it gathers).
func checkSpMMTrans(name string, dst, src *Matrix, indptr []int64, scale []float32) {
	if src.Cols < dst.Cols {
		panic(fmt.Sprintf("tensor: %s src width %d < dst width %d", name, src.Cols, dst.Cols))
	}
	if len(indptr) < dst.Rows+1 {
		panic(fmt.Sprintf("tensor: %s indptr len %d, need %d", name, len(indptr), dst.Rows+1))
	}
	if scale != nil && len(scale) < src.Rows {
		panic(fmt.Sprintf("tensor: %s scale len %d < src rows %d", name, len(scale), src.Rows))
	}
}

// SpMMTrans computes the backward aggregation dst += Aᵀ·diag(scale)·src as a
// GATHER: for every destination row r in [0, dst.Rows),
//
//	dst.Row(r) += Σ_{v ∈ transposed CSR row r} scale[v] · src.Row(v)[:dst.Cols]
//
// (indptr, indices) is the TRANSPOSED index — per destination, the ascending
// list of source rows (graph.AggIndex.IncIndptr/IncSrc) — so destination
// rows are independent and the scatter race of the naive formulation never
// exists. scale indexes SOURCE rows; nil skips the scaling. src.Cols may
// exceed dst.Cols (only the first dst.Cols entries of each source row are read).
// dst is accumulated into, not zeroed: the caller initializes rows (zero, or
// the layer's self term). chunks is the edge-balanced boundary list over the
// transposed index (graph.AggIndex.IncChunks), nil for dynamic row claiming.
func SpMMTrans(dst, src *Matrix, indptr []int64, indices []int32, scale []float32, chunks []int32) {
	SpMMTransRange(dst, src, indptr, indices, scale, chunks, 0, dst.Rows)
}

// SpMMTransRange computes destination rows [lo,hi) of SpMMTrans. chunks (may
// be nil) is clamped to the range: the pipelined engine's BackwardFinish
// completes the inner rows [0,nIn) while the halo rows' gradients are
// already in flight.
func SpMMTransRange(dst, src *Matrix, indptr []int64, indices []int32, scale []float32, chunks []int32, lo, hi int) {
	checkSpMMTrans("SpMMTransRange", dst, src, indptr, scale)
	checkRange("SpMMTransRange", lo, hi, dst.Rows)
	dispatch(rowCall{kernel: kernelSpMMTrans, out: dst, a: src, indptr: indptr, indices: indices, scale: scale},
		rowRange(lo, hi), spmmGrain, chunks)
}

// spmmTransBlock accumulates the listed destination rows of the transposed
// product: dst.Row(r) += Σ scale[v]·src.Row(v)[:w] over the transposed CSR
// row's sources, in stored (ascending-source) order, one gather per row. The
// caller owns dst's initialization.
func spmmTransBlock(dst, src *Matrix, indptr []int64, indices []int32, scale []float32, rows []int32) {
	w := dst.Cols
	for _, r := range rows {
		drow := dst.Data[int(r)*w : int(r)*w+w]
		srcs := indices[indptr[r]:indptr[r+1]]
		if scale == nil {
			GatherAdd(drow, src, srcs)
		} else {
			gatherScaled(drow, src, srcs, scale)
		}
	}
}
