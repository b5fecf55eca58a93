package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The per-panel kernels the row kernels replaced, kept as the reference for
// their bits: one axpy4AVX2 call per (row, four-term panel), which loads and
// stores the output row around every panel, with the scalar tails they had.

func refAxpy4(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
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
		dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

var refUnitCoef = [4]float32{1, 1, 1, 1}

func refAddTo4(dst, b0, b1, b2, b3 []float32) {
	n := len(dst)
	j := 0
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		axpy4AVX2(&dst[0], &b0[0], &b1[0], &b2[0], &b3[0], n8, &refUnitCoef)
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

func refAxpySeq4(dst, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
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

func refGatherAdd(dst []float32, x *Matrix, nbrs []int32) {
	w, xd, xw := len(dst), x.Data, x.Cols
	i := 0
	for ; i+4 <= len(nbrs); i += 4 {
		u0, u1, u2, u3 := int(nbrs[i])*xw, int(nbrs[i+1])*xw, int(nbrs[i+2])*xw, int(nbrs[i+3])*xw
		refAddTo4(dst, xd[u0:u0+w], xd[u1:u1+w], xd[u2:u2+w], xd[u3:u3+w])
	}
	for ; i < len(nbrs); i++ {
		u := int(nbrs[i]) * xw
		AddTo(dst, xd[u:u+w])
	}
}

func refGatherAxpy(dst []float32, x *Matrix, nbrs []int32, coef []float32) {
	w, xd, xw := len(dst), x.Data, x.Cols
	i := 0
	for ; i+4 <= len(nbrs); i += 4 {
		u0, u1, u2, u3 := int(nbrs[i])*xw, int(nbrs[i+1])*xw, int(nbrs[i+2])*xw, int(nbrs[i+3])*xw
		refAxpySeq4(dst, xd[u0:u0+w], xd[u1:u1+w], xd[u2:u2+w], xd[u3:u3+w],
			coef[i], coef[i+1], coef[i+2], coef[i+3])
	}
	for ; i < len(nbrs); i++ {
		u := int(nbrs[i]) * xw
		Axpy(dst, xd[u:u+w], coef[i])
	}
}

// refSpMMTransRow is spmmTransBlock's scaled row: per source, scale[v].
func refSpMMTransRow(drow []float32, src *Matrix, srcs []int32, scale []float32) {
	coef := make([]float32, len(srcs))
	for t, v := range srcs {
		coef[t] = scale[v]
	}
	refGatherAxpy(drow, src, srcs, coef)
}

func refPanelMatMul(out, a, b *Matrix) {
	k, m := a.Cols, b.Cols
	bd := b.Data
	out.Zero()
	kk := 0
	for ; kk+4 <= k; kk += 4 {
		b0, b1, b2, b3 := bd[kk*m:kk*m+m], bd[(kk+1)*m:(kk+1)*m+m], bd[(kk+2)*m:(kk+2)*m+m], bd[(kk+3)*m:(kk+3)*m+m]
		for i := 0; i < a.Rows; i++ {
			arow := a.Data[i*k : i*k+k]
			a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			refAxpy4(out.Data[i*m:i*m+m], b0, b1, b2, b3, a0, a1, a2, a3)
		}
	}
	for ; kk < k; kk++ {
		brow := bd[kk*m : kk*m+m]
		for i := 0; i < a.Rows; i++ {
			if av := a.Data[i*k+kk]; av != 0 {
				Axpy(out.Data[i*m:i*m+m], brow, av)
			}
		}
	}
}

// refMatMulTransAAt is matMulTransABlock over every output row, summed in
// place.
func refMatMulTransAAt(out, a, b *Matrix, rowOf []int32) {
	w, m := a.Cols, b.Cols
	ad, bd := a.Data, b.Data
	r0 := b.Rows
	for _, r := range rowOf {
		if r >= 0 {
			r0--
		}
	}
	stored := func(v int) int {
		if v < r0 {
			return v
		}
		return int(rowOf[v-r0])
	}
	acc := out.Data
	clear(acc)
	end := r0 + len(rowOf)
	tail := end / 4 * 4
	for kk := 0; kk < tail; kk += 4 {
		var al, bl [4][]float32
		first := -1
		for t := range al {
			if i := stored(kk + t); i >= 0 {
				if first < 0 {
					first = i
				}
				al[t], bl[t] = ad[i*w:i*w+w], bd[i*m:i*m+m]
			}
		}
		if first < 0 {
			continue
		}
		for t := range bl {
			if bl[t] == nil {
				bl[t] = bd[first*m : first*m+m]
			}
		}
		for c := 0; c < w; c++ {
			var v [4]float32
			for t, row := range al {
				if row != nil {
					v[t] = row[c]
				}
			}
			if v[0] == 0 && v[1] == 0 && v[2] == 0 && v[3] == 0 {
				continue
			}
			refAxpy4(acc[c*m:c*m+m], bl[0], bl[1], bl[2], bl[3], v[0], v[1], v[2], v[3])
		}
	}
	for v := tail; v < end; v++ {
		i := stored(v)
		if i < 0 {
			continue
		}
		brow := bd[i*m : i*m+m]
		for c, av := range ad[i*w : i*w+w] {
			if av != 0 {
				Axpy(acc[c*m:c*m+m], brow, av)
			}
		}
	}
}

// rowKernelWidths are the output widths the bit-equality tests run: every
// strip count up to one past two strips, and tails of 3, 1 and 3 floats.
var rowKernelWidths = []int{8, 16, 24, 32, 40, 48, 56, 64, 72, 128, 3, 65, 67}

// specialMatrix is randomMatrix with the values that break a wrong chain:
// ±0 (a whole panel of them in some rows), NaN, ±Inf and denormals.
func specialMatrix(rng *RNG, rows, cols int) *Matrix {
	m := randomMatrix(rng, rows, cols)
	negZero := float32(math.Copysign(0, -1))
	special := []float32{0, negZero, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.SmallestNonzeroFloat32, -1e-38}
	for i := range m.Data {
		switch r := rng.Intn(100); {
		case r < 30:
			m.Data[i] = negZero
			if r < 15 {
				m.Data[i] = 0
			}
		case r < 32:
			m.Data[i] = special[rng.Intn(len(special))]
		}
	}
	for r := 0; r < rows; r += 3 { // whole rows of ±0: every panel skipped
		for c := range m.Row(r) {
			m.Row(r)[c] = negZero
		}
	}
	return m
}

// sameRowBits compares rows of the given width bit for bit, so NaN payloads
// and signed zeros count — except in a row's scalar tail (all of it without
// AVX2), where Go fixes no NaN's payload: the compiler may order the operands
// of a commutative add either way (it does differently under -race), so
// there a NaN need only meet a NaN.
func sameRowBits(t *testing.T, name string, got, want []float32, width int) {
	t.Helper()
	simd := 0
	if useAVX2 {
		simd = width &^ 7
	}
	for i := range got {
		g, w := got[i], want[i]
		if i%width >= simd && g != g && w != w {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %#x, want %#x", name, i, math.Float32bits(g), math.Float32bits(w))
		}
	}
}

// TestRowKernelsMatchPerPanelReference: every row kernel gives, bit for bit,
// what the per-panel axpy4AVX2 sequence it replaced gives — the projection
// (MatMul and the fused concat), dW (dense and with MatMulTransAAt's gaps),
// the unit gather and both scaled gathers — at every strip count, with
// tails, on ±0 panels, NaN, ±Inf and denormals, and on empty and mega-degree
// neighbour lists.
func TestRowKernelsMatchPerPanelReference(t *testing.T) {
	rng := NewRNG(29)
	for _, m := range rowKernelWidths {
		for _, k := range []int{1, 3, 4, 9, 48, 130} {
			name := fmt.Sprintf("m=%d k=%d", m, k)
			a, b := specialMatrix(rng, 37, k), specialMatrix(rng, k, m)
			got, want := New(37, m), New(37, m)
			MatMul(got, a, b)
			refPanelMatMul(want, a, b)
			sameRowBits(t, "MatMul "+name, got.Data, want.Data, m)

			// The fused projection over [z|h] is MatMul over the concat;
			// with in = k the panels straddle z|h whenever k%4 != 0.
			h, z := specialMatrix(rng, 37, k), specialMatrix(rng, 37, k)
			w := specialMatrix(rng, 2*k, m)
			concat := New(37, 2*k)
			for r := 0; r < 37; r++ {
				copy(concat.Row(r), z.Row(r))
				copy(concat.Row(r)[k:], h.Row(r))
			}
			refPanelMatMul(want, concat, w)
			fusedProject(got, z, h, w, rowRange(0, 37))
			sameRowBits(t, "fusedProject "+name, got.Data, want.Data, m)

			// dW = aᵀ·b, dense and over selections with gaps, the selected
			// rows stored in reverse.
			for _, sel := range []string{"dense", "gaps", "sparse"} {
				r0, n := 11, 3*k+2
				var on []int
				for v := 0; v < n; v++ {
					if sel == "dense" || (sel == "gaps" && v%5 != 2) || (sel == "sparse" && v%4 == 1) {
						on = append(on, v)
					}
				}
				rows := r0 + len(on)
				rowOf := make([]int32, n)
				for v := range rowOf {
					rowOf[v] = -1
				}
				for x, v := range on {
					rowOf[v] = int32(rows - 1 - x)
				}
				da, db := specialMatrix(rng, rows, k), specialMatrix(rng, rows, m)
				gotW, wantW := New(k, m), New(k, m)
				MatMulTransAAt(gotW, da, db, rowOf)
				refMatMulTransAAt(wantW, da, db, rowOf)
				sameRowBits(t, "MatMulTransAAt "+sel+" "+name, gotW.Data, wantW.Data, m)
			}
		}

		x := specialMatrix(rng, 41, m+5)
		scale := make([]float32, 41)
		for i := range scale {
			scale[i] = specialMatrix(rng, 1, 1).Data[0]
		}
		for _, deg := range []int{0, 1, 3, 4, 7, 300, 1001} {
			name := fmt.Sprintf("m=%d deg=%d", m, deg)
			nbrs := make([]int32, deg)
			coef := make([]float32, deg)
			for i := range nbrs {
				nbrs[i] = int32(rng.Intn(41))
				coef[i] = scale[rng.Intn(41)]
			}
			init := specialMatrix(rng, 1, m).Data
			got, want := append([]float32(nil), init...), append([]float32(nil), init...)
			GatherAdd(got, x, nbrs)
			refGatherAdd(want, x, nbrs)
			sameRowBits(t, "GatherAdd "+name, got, want, m)

			copy(got, init)
			copy(want, init)
			GatherAxpy(got, x, nbrs, coef)
			refGatherAxpy(want, x, nbrs, coef)
			sameRowBits(t, "GatherAxpy "+name, got, want, m)

			// SpMMTrans's scaled gather: one destination row over nbrs.
			indptr := []int64{0, int64(deg)}
			dst := New(1, m)
			copy(dst.Data, init)
			copy(want, init)
			SpMMTrans(dst, x, indptr, nbrs, scale, nil)
			refSpMMTransRow(want, x, nbrs, scale)
			sameRowBits(t, "SpMMTrans "+name, dst.Data, want, m)
		}
	}
}

// dot4 is the per-four-column walk dotRows replaced, kept as the reference
// for its bits: one dot4AVX2 call per four dots over the 8-aligned prefix,
// then the four scalar tails side by side.
func dot4(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	n := len(a)
	i := 0
	if useAVX2 && n >= 8 {
		n8 := n &^ 7
		var out [4]float32
		dot4AVX2(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], n8, &out)
		s0, s1, s2, s3 = out[0], out[1], out[2], out[3]
		i = n8
	}
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for ; i < n; i++ {
		av := a[i]
		s0 += av * b0[i]
		s1 += av * b1[i]
		s2 += av * b2[i]
		s3 += av * b3[i]
	}
	return
}

// refMatMulTransB is out = a·bᵀ by the old walk: four b rows per dot4 call,
// the last m%4 by Dot.
func refMatMulTransB(out, a, b *Matrix) {
	k, m := a.Cols, b.Rows
	bd := b.Data
	j := 0
	for ; j+4 <= m; j += 4 {
		b0, b1, b2, b3 := bd[j*k:j*k+k], bd[(j+1)*k:(j+1)*k+k], bd[(j+2)*k:(j+2)*k+k], bd[(j+3)*k:(j+3)*k+k]
		for i := 0; i < a.Rows; i++ {
			o := out.Row(i)[j : j+4]
			o[0], o[1], o[2], o[3] = dot4(a.Row(i), b0, b1, b2, b3)
		}
	}
	for ; j < m; j++ {
		for i := 0; i < a.Rows; i++ {
			out.Row(i)[j] = Dot(a.Row(i), bd[j*k:j*k+k])
		}
	}
}

// refGatherDots is GatherDots by the old walk: four rows per dot4 call, the
// rest by Dot.
func refGatherDots(out, a []float32, x *Matrix, nbrs []int32) {
	w := len(a)
	i := 0
	for ; i+4 <= len(nbrs); i += 4 {
		out[i], out[i+1], out[i+2], out[i+3] = dot4(a, x.Row(int(nbrs[i]))[:w], x.Row(int(nbrs[i+1]))[:w],
			x.Row(int(nbrs[i+2]))[:w], x.Row(int(nbrs[i+3]))[:w])
	}
	for ; i < len(nbrs); i++ {
		out[i] = Dot(a, x.Row(int(nbrs[i]))[:w])
	}
}

// sameDotBits compares dots of length k bit for bit, except where the dots
// took a Go scalar step (k%8 != 0, or no AVX2): there, as in sameRowBits'
// tails, a NaN need only meet a NaN.
func sameDotBits(t *testing.T, name string, got, want []float32, k int) {
	t.Helper()
	scalar := !useAVX2 || k%8 != 0
	for i := range want {
		g, w := got[i], want[i]
		if scalar && g != g && w != w {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s: dot %d = %#x, want %#x", name, i, math.Float32bits(g), math.Float32bits(w))
		}
	}
}

// TestDotRowsMatchDot4Reference: every dot the row kernel computes —
// MatMulTransB and its Range, the split backward at every in (in%4 != 0
// included) and its row lists, GatherDots — has, bit for bit, what the
// dot4/Dot walk it replaced gives, on ±0, NaN, ±Inf and denormals, at every
// dot length around the 8- and 16-float steps and every m%4.
func TestDotRowsMatchDot4Reference(t *testing.T) {
	rng := NewRNG(37)
	const rows = 23
	list := []int32{22, 3, 7, 0, 15, 16}
	for _, k := range []int{1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 48, 64, 65, 130} {
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 13, 30, 64, 65, 66, 67, 127, 128} {
			name := fmt.Sprintf("k=%d m=%d", k, m)
			a, b := specialMatrix(rng, rows, k), specialMatrix(rng, m, k)
			got, want := New(rows, m), New(rows, m)
			refMatMulTransB(want, a, b)
			MatMulTransB(got, a, b)
			sameDotBits(t, "MatMulTransB "+name, got.Data, want.Data, k)

			got.Zero()
			MatMulTransBRange(got, a, b, 5, 17)
			sameDotBits(t, "MatMulTransBRange "+name, got.Data[5*m:17*m], want.Data[5*m:17*m], k)

			if m%2 != 0 {
				continue
			}
			in := m / 2 // b is the split's w: [0,in) into dz, [in,2·in) into dSelf
			dz, dSelf := New(rows, in), New(rows, in)
			MatMulTransBSplit(dz, dSelf, a, b)
			for i := 0; i < rows; i++ {
				sameDotBits(t, "MatMulTransBSplit dz "+name, dz.Row(i), want.Row(i)[:in], k)
				sameDotBits(t, "MatMulTransBSplit dSelf "+name, dSelf.Row(i), want.Row(i)[in:], k)
			}
			dz.Zero()
			dSelf.Zero()
			MatMulTransBSplitRows(dz, dSelf, a, b, list)
			for _, v := range list {
				i := int(v)
				sameDotBits(t, "MatMulTransBSplitRows dz "+name, dz.Row(i), want.Row(i)[:in], k)
				sameDotBits(t, "MatMulTransBSplitRows dSelf "+name, dSelf.Row(i), want.Row(i)[in:], k)
			}
		}

		x := specialMatrix(rng, 41, k+3) // a prefix of each row is dotted
		a := specialMatrix(rng, 1, k).Data
		for _, deg := range []int{0, 1, 3, 4, 5, 7, 24, 300} {
			nbrs := make([]int32, deg)
			for i := range nbrs {
				nbrs[i] = int32(rng.Intn(41))
			}
			got, want := make([]float32, deg), make([]float32, deg)
			GatherDots(got, a, x, nbrs)
			refGatherDots(want, a, x, nbrs)
			sameDotBits(t, fmt.Sprintf("GatherDots k=%d deg=%d", k, deg), got, want, k)
		}
	}
}
