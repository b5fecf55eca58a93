package tensor

// Row-accumulate kernels: the one inner loop of the projection, the dW
// reductions and the sparse gathers. Each computes
//
//	dst += Σ_t coef[t] · x.Row(idx[t])
//
// for one output row, in term order, four terms (a panel) at a time and the
// last len(idx)%4 one by one. On AVX2 the row's 8-aligned prefix is held in
// YMM registers for the whole sum — in strips of at most rowStrip floats,
// eight accumulators — and loaded and stored once; the <8-float tail is the
// scalar loop beside it, which without AVX2 covers the whole row and is the
// reference. panelRows is the dense form (the projection and dW); GatherAdd,
// GatherAxpy and SpMMTrans's gatherScaled (spmm.go) are the gathers.
//
// Every kernel takes its source's row count and compares each row id with it
// as it loads the id — one unsigned compare, so a negative id fails too. On a
// bad id it returns false without storing, and the Go wrapper panics naming
// the id (rowFault, with checkGather's message). So every row a kernel reads
// is checked on every call without a Go pass over the index list; that pass
// (checkGather) runs only where no kernel does.
//
// Every output element keeps the exact operation chain of the per-panel
// kernels these replaced: per panel the four FMAs a0, a1, a2, a3 into the
// accumulator in that order (fma(1, x, acc) ≡ acc + x for the unit sum), a
// single term one FMA (one add), panels in order. Only the loads and stores
// of the row between panels are gone, and they were exact, so the result has
// the same bits. The scalar tails keep the expressions of those kernels too:
// panelRows the fused four-term sum of the dense kernels, the gathers one
// term at a time like AddTo and Axpy.

// rowStrip is the widest piece of an output row one kernel call holds in
// registers: eight YMM accumulators of eight floats.
const rowStrip = 64

// CoefPiece is the most coefficients a caller gathers onto its stack for one
// row kernel call (fusedProject's concat row, the GAT backward's GatherAxpy
// chains). SpMMTrans gathers none: its kernel reads each term's scale at the
// term's row id. A longer list goes in pieces of whole panels; a piece
// boundary only stores and reloads the row, which changes no bit.
const CoefPiece = 256

// panelRows accumulates dst += Σ_t coef[t·cs]·x.Row(idx[t])[:len(dst)],
// passing over every panel whose four coefficients are all ±0 and every
// single term whose coefficient is — the dense kernels' dropout skip. The
// caller guarantees that coef holds every term's coefficient and that every
// row it names lies inside x; the kernel checks every row it reads all the
// same, and the scalar loops index x.Data with Go's bounds checks.
func panelRows(dst []float32, x *Matrix, idx []int32, coef []float32, cs int) {
	n, xd, ldx := len(dst), x.Data, x.Cols
	n8 := 0
	if useAVX2 && len(idx) > 0 {
		_ = coef[(len(idx)-1)*cs] // the last term's coefficient is in coef
		n8 = n &^ 7
		for s := 0; s < n8; s += rowStrip {
			if !axpyRowsAVX2(&dst[s], min(n8-s, rowStrip)/8, &idx[0], len(idx), &xd[s], ldx, x.Rows, &coef[0], cs, 1) {
				rowFault(x, idx)
			}
		}
	}
	if n8 == n {
		return
	}
	t := 0
	for ; t+4 <= len(idx); t += 4 {
		a0, a1, a2, a3 := coef[t*cs], coef[(t+1)*cs], coef[(t+2)*cs], coef[(t+3)*cs]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		b0 := xd[int(idx[t])*ldx:][:n]
		b1 := xd[int(idx[t+1])*ldx:][:n]
		b2 := xd[int(idx[t+2])*ldx:][:n]
		b3 := xd[int(idx[t+3])*ldx:][:n]
		for j := n8; j < n; j++ {
			dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; t < len(idx); t++ {
		a := coef[t*cs]
		if a == 0 {
			continue
		}
		src := xd[int(idx[t])*ldx:][:n]
		for j := n8; j < n; j++ {
			dst[j] += a * src[j]
		}
	}
}

// dotRows writes out[t] = a·x.Row(idx[t])[:len(a)] for every term t — the
// row kernel of out = a·bᵀ (MatMulTransB, the split backward) and of
// GatherDots. On AVX2 the 8-aligned prefix of every dot is one
// dotRowsAVX2 call over the whole list, four dots at a time with
// dot4AVX2's chain and the rest with dotAVX2's, which is one lane of the
// same chain; the scalar tail (without AVX2 the whole dot) then adds one
// element at a time as Dot does. So every dot has Dot's bits, whatever
// list or position it is computed in. The caller guarantees len(out) ≥
// len(idx) and len(a) ≤ x.Cols; the kernel checks every row id, and the
// scalar loop indexes x.Data with Go's bounds checks.
func dotRows(out, a []float32, x *Matrix, idx []int32) {
	n, xd, ldx := len(a), x.Data, x.Cols
	n8 := 0
	if useAVX2 && n >= 8 && len(idx) > 0 {
		_ = out[len(idx)-1]
		n8 = n &^ 7
		if !dotRowsAVX2(&out[0], &a[0], n8, &idx[0], len(idx), &xd[0], ldx, x.Rows) {
			rowFault(x, idx)
		}
		if n8 == n {
			return
		}
	}
	for t, u := range idx {
		var s float32
		if n8 > 0 {
			s = out[t]
		}
		row := xd[int(u)*ldx:][:n]
		for j := n8; j < n; j++ {
			s += a[j] * row[j]
		}
		out[t] = s
	}
}

// rowFault panics naming the row id of idx that a row kernel refused (see
// checkGather).
func rowFault(x *Matrix, idx []int32) {
	checkGather(x, idx)
	panic("tensor: row kernel refused an in-range row list")
}
