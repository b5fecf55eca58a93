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
// The kernels below walk edges four at a time through axpy4 instead, and that
// is bit-identical to the sequential walk: the assembly chains its four FMAs
// into one accumulator in source order (dst, then +b0, +b1, +b2, +b3 — and
// fma(1,x,acc) ≡ acc+x exactly, so the unit-coefficient case reproduces
// AddTo), and addTo4/axpySeq4 use sequential mul-then-add scalar tails that
// match Axpy's own tail step for step. Accumulation order per *element* only
// depends on per-element operation order, which edge-blocking preserves.
// The property tests pin kernel ≡ reference on odd/prime shapes, zero-degree
// rows, and random row partitions.
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

// unitCoef feeds axpy4AVX2 for the unscaled gather: fma(1,x,acc) ≡ acc+x
// bitwise, so the blocked sum reproduces sequential AddTo exactly.
var unitCoef = [4]float32{1, 1, 1, 1}

// addTo4 computes dst += b0 + b1 + b2 + b3 with, per element, the exact
// accumulation order of four sequential AddTo calls.
func addTo4(dst, b0, b1, b2, b3 []float32) {
	n := len(dst)
	j := 0
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		axpy4AVX2(&dst[0], &b0[0], &b1[0], &b2[0], &b3[0], n8, &unitCoef)
		j = n8
	}
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for ; j < n; j++ {
		v := dst[j]
		v += b0[j]
		v += b1[j]
		v += b2[j]
		v += b3[j]
		dst[j] = v
	}
}

// axpySeq4 computes dst += a0*b0 + a1*b1 + a2*b2 + a3*b3 with, per element,
// the exact accumulation order of four sequential Axpy calls (the assembly
// chains the four FMAs; the scalar tail multiplies-then-adds one term at a
// time, unlike axpy4's fused four-term tail).
func axpySeq4(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	n := len(dst)
	j := 0
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		a := [4]float32{a0, a1, a2, a3}
		axpy4AVX2(&dst[0], &b0[0], &b1[0], &b2[0], &b3[0], n8, &a)
		j = n8
	}
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for ; j < n; j++ {
		v := dst[j]
		v += a0 * b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		dst[j] = v
	}
}

// GatherSum computes dst = Σ_i x.Row(nbrs[i]), walking the rows in order
// with the edge-blocked accumulation (bit-identical to sequential AddTo).
// len(dst) must equal x.Cols.
func GatherSum(dst []float32, x *Matrix, nbrs []int32) {
	for j := range dst {
		dst[j] = 0
	}
	GatherAdd(dst, x, nbrs)
}

// GatherAdd computes dst += Σ_i x.Row(nbrs[i]) in list order.
func GatherAdd(dst []float32, x *Matrix, nbrs []int32) {
	w := len(dst)
	xd := x.Data
	xw := x.Cols
	i := 0
	for ; i+4 <= len(nbrs); i += 4 {
		u0, u1, u2, u3 := int(nbrs[i])*xw, int(nbrs[i+1])*xw, int(nbrs[i+2])*xw, int(nbrs[i+3])*xw
		addTo4(dst, xd[u0:u0+w], xd[u1:u1+w], xd[u2:u2+w], xd[u3:u3+w])
	}
	for ; i < len(nbrs); i++ {
		u := int(nbrs[i]) * xw
		AddTo(dst, xd[u:u+w])
	}
}

// GatherAxpy computes dst += Σ_i coef[i]·x.Row(nbrs[i]) in list order
// (bit-identical to sequential Axpy calls). len(coef) must be ≥ len(nbrs);
// len(dst) must be ≤ x.Cols (a prefix of each source row is gathered).
func GatherAxpy(dst []float32, x *Matrix, nbrs []int32, coef []float32) {
	w := len(dst)
	xd := x.Data
	xw := x.Cols
	i := 0
	for ; i+4 <= len(nbrs); i += 4 {
		u0, u1, u2, u3 := int(nbrs[i])*xw, int(nbrs[i+1])*xw, int(nbrs[i+2])*xw, int(nbrs[i+3])*xw
		axpySeq4(dst, xd[u0:u0+w], xd[u1:u1+w], xd[u2:u2+w], xd[u3:u3+w],
			coef[i], coef[i+1], coef[i+2], coef[i+3])
	}
	for ; i < len(nbrs); i++ {
		u := int(nbrs[i]) * xw
		Axpy(dst, xd[u:u+w], coef[i])
	}
}

// GatherDots computes out[i] = Σ_j a[j]·x.Row(nbrs[i])[j] for every i, four
// rows per dot4 pass (the shared a vector is loaded once per four rows).
// Each dot is independent, so the blocking affects no other entry; within a
// dot the dot4 lane reduction differs from the scalar Dot — callers that
// need bit-stability must route every computation of a value through this
// one function, which the GAT backward does.
func GatherDots(out []float32, a []float32, x *Matrix, nbrs []int32) {
	w := len(a)
	xd := x.Data
	xw := x.Cols
	i := 0
	for ; i+4 <= len(nbrs); i += 4 {
		u0, u1, u2, u3 := int(nbrs[i])*xw, int(nbrs[i+1])*xw, int(nbrs[i+2])*xw, int(nbrs[i+3])*xw
		out[i], out[i+1], out[i+2], out[i+3] = dot4(a, xd[u0:u0+w], xd[u1:u1+w], xd[u2:u2+w], xd[u3:u3+w])
	}
	for ; i < len(nbrs); i++ {
		u := int(nbrs[i]) * xw
		out[i] = Dot(a, xd[u:u+w])
	}
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
// lists, source matrix at least as wide as the destination, per-SOURCE scale.
func checkSpMMTrans(name string, dst, src *Matrix, indptr []int64) {
	if src.Cols < dst.Cols {
		panic(fmt.Sprintf("tensor: %s src width %d < dst width %d", name, src.Cols, dst.Cols))
	}
	if len(indptr) < dst.Rows+1 {
		panic(fmt.Sprintf("tensor: %s indptr len %d, need %d", name, len(indptr), dst.Rows+1))
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
	checkSpMMTrans("SpMMTransRange", dst, src, indptr)
	checkRange("SpMMTransRange", lo, hi, dst.Rows)
	dispatch(rowCall{kernel: kernelSpMMTrans, out: dst, a: src, indptr: indptr, indices: indices, scale: scale},
		rowRange(lo, hi), spmmGrain, chunks)
}

// spmmTransBlock accumulates the listed destination rows of the transposed
// product: dst.Row(r) += Σ scale[v]·src.Row(v)[:w] over the transposed CSR
// row's sources, in stored (ascending-source) order. The caller owns dst's
// initialization.
func spmmTransBlock(dst, src *Matrix, indptr []int64, indices []int32, scale []float32, rows []int32) {
	w := dst.Cols
	sd := src.Data
	sw := src.Cols
	for _, r := range rows {
		drow := dst.Data[int(r)*w : int(r)*w+w]
		srcs := indices[indptr[r]:indptr[r+1]]
		if scale == nil {
			GatherAdd(drow, src, srcs)
			continue
		}
		i := 0
		for ; i+4 <= len(srcs); i += 4 {
			v0, v1, v2, v3 := srcs[i], srcs[i+1], srcs[i+2], srcs[i+3]
			axpySeq4(drow,
				sd[int(v0)*sw:int(v0)*sw+w], sd[int(v1)*sw:int(v1)*sw+w],
				sd[int(v2)*sw:int(v2)*sw+w], sd[int(v3)*sw:int(v3)*sw+w],
				scale[v0], scale[v1], scale[v2], scale[v3])
		}
		for ; i < len(srcs); i++ {
			v := srcs[i]
			Axpy(drow, sd[int(v)*sw:int(v)*sw+w], scale[v])
		}
	}
}
