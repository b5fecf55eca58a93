package tensor

import "math/bits"

// Workspace is a reusable arena of matrices and float32 slices for
// allocation-free hot loops. Buffers are bucketed by power-of-two capacity;
// after one warm-up pass through a loop with stable shapes, every Get is
// served from a free list and allocates nothing.
//
// Ownership rules: a buffer returned by Get/GetF32 belongs to the caller
// until it is handed back, either individually via Put or wholesale via
// Reset. Get returns buffers with UNDEFINED contents (zero them when the
// caller accumulates into the buffer). A Workspace is NOT safe for
// concurrent use; each owner — one trainer worker, one partition — keeps its
// own.
type Workspace struct {
	mats   [33][]*Matrix
	slices [33][][]float32

	usedMats   []*Matrix
	usedSlices [][]float32
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// sizeClass returns the bucket index whose buffers have capacity 1<<class.
func sizeClass(n int) int {
	if n <= 0 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a rows×cols matrix with undefined contents.
func (w *Workspace) Get(rows, cols int) *Matrix {
	n := rows * cols
	c := sizeClass(n)
	var m *Matrix
	if bucket := w.mats[c]; len(bucket) > 0 {
		m = bucket[len(bucket)-1]
		w.mats[c] = bucket[:len(bucket)-1]
		m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	} else {
		m = &Matrix{Rows: rows, Cols: cols, Data: make([]float32, n, 1<<c)}
	}
	w.usedMats = append(w.usedMats, m)
	return m
}

// GetF32 returns a float32 slice of length n with undefined contents.
func (w *Workspace) GetF32(n int) []float32 {
	c := sizeClass(n)
	var s []float32
	if bucket := w.slices[c]; len(bucket) > 0 {
		s = bucket[len(bucket)-1][:n]
		w.slices[c] = bucket[:len(bucket)-1]
	} else {
		s = make([]float32, n, 1<<c)
	}
	w.usedSlices = append(w.usedSlices, s)
	return s
}

// putClass returns the bucket a buffer of the given capacity may serve:
// the largest class c with 1<<c <= capacity, so every Get from that bucket
// fits. Returns -1 for capacity 0 (not poolable).
func putClass(capacity int) int {
	return bits.Len(uint(capacity)) - 1
}

// Put returns m to the free lists ahead of the next Reset. The caller must
// not use m afterwards. Put scans the outstanding-buffer list (newest
// first), so it is cheap for stack-disciplined early recycling but O(n) in
// the worst case; hot loops that hold many buffers should rely on Reset.
func (w *Workspace) Put(m *Matrix) {
	for i := len(w.usedMats) - 1; i >= 0; i-- {
		if w.usedMats[i] == m {
			w.usedMats = append(w.usedMats[:i], w.usedMats[i+1:]...)
			break
		}
	}
	if c := putClass(cap(m.Data)); c >= 0 {
		w.mats[c] = append(w.mats[c], m)
	}
}

// Reset returns every outstanding buffer to the free lists. All matrices and
// slices previously handed out become invalid for the caller: the next Gets
// will reuse their storage.
func (w *Workspace) Reset() {
	for i, m := range w.usedMats {
		if c := putClass(cap(m.Data)); c >= 0 {
			w.mats[c] = append(w.mats[c], m)
		}
		w.usedMats[i] = nil
	}
	w.usedMats = w.usedMats[:0]
	for i, s := range w.usedSlices {
		if c := putClass(cap(s)); c >= 0 {
			w.slices[c] = append(w.slices[c], s)
		}
		w.usedSlices[i] = nil
	}
	w.usedSlices = w.usedSlices[:0]
}

// EnsureMat returns a rows×cols matrix stored at *buf, reusing the existing
// storage when its capacity suffices. Contents are UNDEFINED; callers must
// fully overwrite or explicitly zero. This is how layers and trainers keep
// owner-held scratch out of the allocator: shapes are stable across epochs,
// so after warm-up every call reuses the same backing arrays.
func EnsureMat(buf **Matrix, rows, cols int) *Matrix {
	m := *buf
	n := rows * cols
	if m == nil || cap(m.Data) < n {
		m = New(rows, cols)
		*buf = m
		return m
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// EnsureF32 returns a length-n float32 slice stored at *buf with undefined
// contents, reusing capacity when possible.
func EnsureF32(buf *[]float32, n int) []float32 {
	s := *buf
	if cap(s) < n {
		s = make([]float32, n)
	} else {
		s = s[:n]
	}
	*buf = s
	return s
}

// EnsureI32 is EnsureF32 for int32 slices.
func EnsureI32(buf *[]int32, n int) []int32 {
	s := *buf
	if cap(s) < n {
		s = make([]int32, n)
	} else {
		s = s[:n]
	}
	*buf = s
	return s
}
