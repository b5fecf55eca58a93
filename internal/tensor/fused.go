package tensor

import "fmt"

// Fused aggregate-then-project kernels for the SAGE layer's hot path:
//
//	pre = [diag(scale)·A·h | h] · w
//
// computed WITHOUT ever materializing the nOut × 2·in concat matrix. The
// unfused pipeline (SpMM into the concat's left half, a row-copy pass into
// the right half, then MatMul over the concat) streams the same nOut × 2·in
// floats through DRAM three times; the fused kernels gather each aggregated
// row into z and feed it to the projection FMAs while the row is still hot in
// L1, splitting w into its aggregation-half (rows [0,in)) and self-half
// (rows [in,2·in)) panels. Only z (nOut × in, needed by the backward for dW)
// is written — the self half is read straight from h and the concat buffer
// and its copy pass disappear entirely.
//
// Bit-identity. Per output row the projection performs the EXACT operation
// sequence of matMulBlock over the virtual concat row [z_v | h_v]: the same
// kk-panel walk over the full 2·in width — panels are never restarted at the
// z/h boundary, so the four-term groupings are unchanged even when in % 4 != 0
// — the same all-four-zero coefficient skip, and the same scalar tail. The
// aggregation into z is spmmBlock itself. Rows are independent, so every
// partition of the row space (chunks, grains, row lists) is bit-identical in
// any execution order, exactly like SpMM/MatMul. The fused
// property tests pin fused ≡ SpMM+copy+MatMul bitwise on odd/prime widths,
// zero/mega-degree rows, random row partitions, and the forced-parallel path.
//
// The backward is fused symmetrically:
//
//	MatMulTransBSplit  — dConcat = dPre·wᵀ with the left half written to dz
//	                     and the right half (the self term) written straight
//	                     into the input-gradient rows, one sweep, no dConcat:
//	                     one dotRows call per half, every element one dot
//	                     with Dot's bits.
//	MatMulTransASplit  — dW = [z|h]ᵀ·dPre reading the two operand halves in
//	                     place.

// checkFused validates the shared fused-forward contract: z as wide as h,
// w stacking an aggregation half on a self half, one CSR row per output row.
func checkFused(name string, pre, z, h, w *Matrix, indptr []int64, scale []float32) {
	if z.Cols != h.Cols {
		panic(fmt.Sprintf("tensor: %s z width %d != h width %d", name, z.Cols, h.Cols))
	}
	if w.Rows != 2*z.Cols {
		panic(fmt.Sprintf("tensor: %s w rows %d, want 2*%d", name, w.Rows, z.Cols))
	}
	if pre.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: %s pre width %d != w cols %d", name, pre.Cols, w.Cols))
	}
	if pre.Rows > z.Rows || pre.Rows > h.Rows {
		panic(fmt.Sprintf("tensor: %s pre rows %d > z rows %d or h rows %d", name, pre.Rows, z.Rows, h.Rows))
	}
	if len(indptr) < pre.Rows+1 {
		panic(fmt.Sprintf("tensor: %s indptr len %d, need %d", name, len(indptr), pre.Rows+1))
	}
	if scale != nil && len(scale) < pre.Rows {
		panic(fmt.Sprintf("tensor: %s scale len %d, need %d", name, len(scale), pre.Rows))
	}
}

// SpMMMatMul computes, for every row r in [0, pre.Rows):
//
//	z.Row(r)   = scale[r] · Σ_{e ∈ CSR row r} h.Row(indices[e])
//	pre.Row(r) = [z.Row(r) | h.Row(r)] · w
//
// i.e. pre = [diag(scale)·A·h | h]·w with the concat fused away. z must be
// pre.Rows × h.Cols (the caller keeps it for the backward's dW); w is
// (2·h.Cols) × pre.Cols. chunks, when non-nil, is an edge-balanced row-chunk
// boundary list — use graph.AggIndex.ChunksFor with the projection's per-row
// cost so wide layers stay balanced — with the same contract as SpMM's.
// Bit-identical per row to SpMM + self-copy + MatMul over the concat.
func SpMMMatMul(pre, z, h, w *Matrix, indptr []int64, indices []int32, scale []float32, chunks []int32) {
	checkFused("SpMMMatMul", pre, z, h, w, indptr, scale)
	dispatch(rowCall{kernel: kernelSpMMMatMul, out: pre, out2: z, a: h, b: w, indptr: indptr, indices: indices, scale: scale},
		rowRange(0, pre.Rows), spmmGrain, chunks)
}

// SpMMMatMulRows computes the listed rows of SpMMMatMul, leaving all other
// rows untouched. rows must be in-range and duplicate-free; order is
// irrelevant. This is the row-subset entry the pipelined epoch engine's
// halo-free and per-peer buckets drive.
func SpMMMatMulRows(pre, z, h, w *Matrix, indptr []int64, indices []int32, scale []float32, rows []int32) {
	checkFused("SpMMMatMulRows", pre, z, h, w, indptr, scale)
	dispatch(rowCall{kernel: kernelSpMMMatMul, out: pre, out2: z, a: h, b: w, indptr: indptr, indices: indices, scale: scale},
		rows, spmmGrain, nil)
}

// spmmMatMulBlock runs the fused pass over the listed rows (at most
// rowBlock): they are aggregated into z, then projected while still
// cache-hot, w shared by the whole block.
func spmmMatMulBlock(pre, z, h, w *Matrix, indptr []int64, indices []int32, scale []float32, rows []int32) {
	spmmBlock(z, h, indptr, indices, scale, rows)
	fusedProject(pre, z, h, w, rows)
}

// fusedProject computes the listed pre rows over the virtual concat [z|h]
// with matMulBlock's exact per-row operation sequence: each row's concat
// coefficients [z_i | h_i] are gathered once into scratch and the row is one
// reduction over w's 2·in rows — panels of four over the full width, never
// restarted at the z/h boundary, the same all-four-zero skip and the same
// scalar tail.
func fusedProject(pre, z, h, w *Matrix, rows []int32) {
	in := z.Cols
	k, m := 2*in, w.Cols
	var cat [CoefPiece]float32
	ks := rowRange(0, k) // w's rows, one atomic load per block
	for _, v := range rows {
		i := int(v)
		dst := pre.Data[i*m : i*m+m]
		clear(dst)
		zi, hi := z.Data[i*in:i*in+in], h.Data[i*in:i*in+in]
		for k0 := 0; k0 < k; k0 += CoefPiece {
			k1 := min(k0+CoefPiece, k)
			nz := copy(cat[:], zi[min(k0, in):min(k1, in)])
			copy(cat[nz:], hi[max(k0, in)-in:max(k1, in)-in])
			panelRows(dst, w, ks[k0:k1], cat[:k1-k0], 1)
		}
	}
}

// checkSplitB validates the fused backward-sweep contract.
func checkSplitB(name string, dz, dSelf, dPre, w *Matrix) {
	if dz.Cols != dSelf.Cols {
		panic(fmt.Sprintf("tensor: %s dz width %d != dSelf width %d", name, dz.Cols, dSelf.Cols))
	}
	if w.Rows != 2*dz.Cols {
		panic(fmt.Sprintf("tensor: %s w rows %d, want 2*%d", name, w.Rows, dz.Cols))
	}
	if w.Cols != dPre.Cols {
		panic(fmt.Sprintf("tensor: %s w cols %d != dPre width %d", name, w.Cols, dPre.Cols))
	}
	if dz.Rows < dPre.Rows || dSelf.Rows < dPre.Rows {
		panic(fmt.Sprintf("tensor: %s dz rows %d / dSelf rows %d < dPre rows %d", name, dz.Rows, dSelf.Rows, dPre.Rows))
	}
}

// MatMulTransBSplit computes, for every row v in [0, dPre.Rows), the row
// dPre.Row(v)·wᵀ of the concat gradient — writing its left half (the
// aggregation gradient dz_v) to dz.Row(v) and its right half (the self term)
// straight into dSelf.Row(v), which it OVERWRITES. One sweep replaces the
// unfused MatMulTransB-into-dConcat plus the self-copy pass. Every element
// is one dot with Dot's bits wherever the row is cut, so this is
// bit-identical to computing the dConcat row and splitting it afterwards.
// Rows are independent.
func MatMulTransBSplit(dz, dSelf, dPre, w *Matrix) {
	checkSplitB("MatMulTransBSplit", dz, dSelf, dPre, w)
	dispatch(rowCall{kernel: kernelMatMulTransBSplit, out: dz, out2: dSelf, a: dPre, b: w}, rowRange(0, dPre.Rows), rowBlock, nil)
}

// MatMulTransBSplitRows is MatMulTransBSplit for an explicit row list — the
// staged backward's halo and finish sweeps each cover their source subset.
// Bit-identical per row to MatMulTransBSplit.
func MatMulTransBSplitRows(dz, dSelf, dPre, w *Matrix, rows []int32) {
	checkSplitB("MatMulTransBSplitRows", dz, dSelf, dPre, w)
	dispatch(rowCall{kernel: kernelMatMulTransBSplit, out: dz, out2: dSelf, a: dPre, b: w}, rows, rowBlock, nil)
}

// matMulTransBSplitBlock computes the listed rows of MatMulTransBSplit: per
// row, the dots with w's rows [0,in) into dz and with [in,2·in) into dSelf.
func matMulTransBSplitBlock(dz, dSelf, dPre, w *Matrix, rows []int32) {
	in, k := dz.Cols, dPre.Cols
	zs, ss := rowRange(0, in), rowRange(in, 2*in)
	for _, v := range rows {
		i := int(v)
		g := dPre.Data[i*k : i*k+k]
		dotRows(dz.Data[i*in:i*in+in], g, w, zs)
		dotRows(dSelf.Data[i*in:i*in+in], g, w, ss)
	}
}

// MatMulTransASplit computes out = [z|h]ᵀ·dPre where z is n×in, h's first n
// rows are the self half, and dPre is n×m; out must be 2·in × m and is
// overwritten. This is MatMulTransA over the virtual concat with the operand
// halves read in place: an output row is the sum over one column of z or of
// h, reduced by matMulTransABlock itself, so the result is bit-identical to
// MatMulTransA(out, concat, dPre) at every pool width.
func MatMulTransASplit(out, z, h, dPre *Matrix) {
	if z.Cols != h.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransASplit z width %d != h width %d", z.Cols, h.Cols))
	}
	if z.Rows != dPre.Rows || h.Rows < dPre.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransASplit z rows %d / h rows %d vs dPre rows %d", z.Rows, h.Rows, dPre.Rows))
	}
	if out.Rows != 2*z.Cols || out.Cols != dPre.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransASplit out shape %dx%d, want %dx%d", out.Rows, out.Cols, 2*z.Cols, dPre.Cols))
	}
	dispatch(rowCall{kernel: kernelMatMulTransASplit, out: out, a: z, a2: h, b: dPre},
		rowRange(0, out.Rows), reduceGrain(out.Rows), nil)
}

// matMulTransASplitBlock computes rows [c0,c1) of MatMulTransASplit: the
// part below in reduces columns of z, the part from in on columns of h into
// the lower half of out.
func matMulTransASplitBlock(out, z, h, dPre *Matrix, c0, c1 int) {
	in := z.Cols
	if c0 < in {
		matMulTransABlock(out.Data, z, dPre, nil, dPre.Rows, c0, min(c1, in))
	}
	if c1 > in {
		matMulTransABlock(out.Data[in*out.Cols:], h, dPre, nil, dPre.Rows, max(c0, in)-in, c1-in)
	}
}
