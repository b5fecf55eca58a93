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

// TestMatMulRowsMatchesFull pins the bit-identity contract of the row-subset
// kernels: computing any partition of the rows — in two chunks, scattered or
// contiguous — must reproduce the one-shot kernel exactly, on odd and prime
// shapes that exercise every tail path.
func TestMatMulRowsMatchesFull(t *testing.T) {
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
		rows1, rows2 := randomSplit(rng, n)
		MatMulRows(got, a, b, rows1)
		MatMulRows(got, a, b, rows2)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("MatMulRows %dx%dx%d: element %d = %v, want %v", n, k, m, i, got.Data[i], want.Data[i])
			}
		}

		got2 := New(n, m)
		fillSentinel(got2)
		cut := n / 3
		MatMulRange(got2, a, b, 0, cut)
		MatMulRange(got2, a, b, cut, n)
		for i := range want.Data {
			if got2.Data[i] != want.Data[i] {
				t.Fatalf("MatMulRange %dx%dx%d: element %d = %v, want %v", n, k, m, i, got2.Data[i], want.Data[i])
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

// TestMatMulRowsLeavesOtherRowsUntouched: a row-subset call must not write a
// single element outside its listed rows (the engine's output matrices hold
// live chunk-1 results while chunk 2 runs).
func TestMatMulRowsLeavesOtherRowsUntouched(t *testing.T) {
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
	rows := []int32{2, 3, 11, 17}
	listed := map[int32]bool{}
	for _, v := range rows {
		listed[v] = true
	}
	check := func(name string, got *Matrix) {
		t.Helper()
		for i, v := range got.Data {
			if !listed[int32(i/m)] && v != -12345.5 {
				t.Fatalf("%s wrote element %d of unlisted row %d", name, i, i/m)
			}
		}
	}
	got := New(n, m)
	fillSentinel(got)
	MatMulRows(got, a, b, rows)
	check("MatMulRows", got)
}
