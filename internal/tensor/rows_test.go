package tensor

import (
	"testing"
)

// fillSentinel poisons a matrix so untouched-row checks are meaningful.
func fillSentinel(m *Matrix) {
	for i := range m.Data {
		m.Data[i] = -12345.5
	}
}

// randomSplit partitions [0,n) into two duplicate-free ascending row lists.
func randomSplit(rng *RNG, n int) (a, b []int32) {
	for v := 0; v < n; v++ {
		if rng.Float32() < 0.5 {
			a = append(a, int32(v))
		} else {
			b = append(b, int32(v))
		}
	}
	return a, b
}

// TestMatMulRangeMatchesFull pins the bit-identity contract of the row-range
// kernel: computing any cut of the rows into ranges, in any order, must
// reproduce the one-shot kernel exactly, on odd and prime shapes that
// exercise every tail path.
func TestMatMulRangeMatchesFull(t *testing.T) {
	rng := NewRNG(7)
	shapes := [][3]int{{1, 1, 1}, {3, 5, 2}, {7, 13, 11}, {17, 9, 23}, {65, 31, 19}, {130, 67, 37}}
	for _, s := range shapes {
		n, k, m := s[0], s[1], s[2]
		a := New(n, k)
		b := New(k, m)
		for i := range a.Data {
			a.Data[i] = float32(rng.NormFloat64())
		}
		for i := range b.Data {
			b.Data[i] = float32(rng.NormFloat64())
		}
		want := New(n, m)
		MatMul(want, a, b)

		got := New(n, m)
		fillSentinel(got)
		cut1 := n / 3
		cut2 := cut1 + rng.Intn(n-cut1+1)
		MatMulRange(got, a, b, cut2, n)
		MatMulRange(got, a, b, 0, cut1)
		MatMulRange(got, a, b, cut1, cut2)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("MatMulRange %dx%dx%d: element %d = %v, want %v", n, k, m, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulTransBRangeMatchesFull is the same contract for out = a·bᵀ, whose
// only partial form is the range.
func TestMatMulTransBRangeMatchesFull(t *testing.T) {
	rng := NewRNG(11)
	shapes := [][3]int{{1, 1, 1}, {5, 3, 7}, {13, 11, 5}, {29, 17, 9}, {67, 23, 41}}
	for _, s := range shapes {
		n, k, m := s[0], s[1], s[2]
		a := New(n, k)
		b := New(m, k)
		for i := range a.Data {
			a.Data[i] = float32(rng.NormFloat64())
		}
		for i := range b.Data {
			b.Data[i] = float32(rng.NormFloat64())
		}
		want := New(n, m)
		MatMulTransB(want, a, b)

		got2 := New(n, m)
		fillSentinel(got2)
		cut := (n + 1) / 2
		MatMulTransBRange(got2, a, b, 0, cut)
		MatMulTransBRange(got2, a, b, cut, n)
		for i := range want.Data {
			if got2.Data[i] != want.Data[i] {
				t.Fatalf("MatMulTransBRange %dx%dx%d: element %d = %v, want %v", n, k, m, i, got2.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulRangeLeavesOtherRowsUntouched: a row-range call must not write a
// single element outside its rows (the engine's output matrices hold rows
// computed earlier in the pass while later ones run).
func TestMatMulRangeLeavesOtherRowsUntouched(t *testing.T) {
	rng := NewRNG(13)
	const n, k, m = 19, 7, 5
	a := New(n, k)
	b := New(k, m)
	for i := range a.Data {
		a.Data[i] = float32(rng.NormFloat64())
	}
	for i := range b.Data {
		b.Data[i] = float32(rng.NormFloat64())
	}
	ranges := [][2]int{{2, 4}, {11, 12}, {17, 18}}
	listed := map[int]bool{}
	for _, r := range ranges {
		for v := r[0]; v < r[1]; v++ {
			listed[v] = true
		}
	}
	got := New(n, m)
	fillSentinel(got)
	for _, r := range ranges {
		MatMulRange(got, a, b, r[0], r[1])
	}
	for i, v := range got.Data {
		if !listed[i/m] && v != -12345.5 {
			t.Fatalf("MatMulRange wrote element %d of row %d, outside its ranges", i, i/m)
		}
	}
}
