package tensor

import "math"

// Workspace is a reusable arena of matrices for allocation-free hot loops.
// Buffers are handed out by position: the k-th Get after a Reset reuses the
// buffer the k-th one before that Reset returned, regrown (EnsureMat, with
// its headroom) when this pass asks it for more. A loop that draws the same
// sequence of buffers every pass — the epoch engine's stages do — therefore
// allocates nothing once every position has held its largest shape, whatever
// the shapes are and however they move from pass to pass.
//
// Ownership rules: a buffer returned by Get belongs to the caller until the
// next Reset, which takes every buffer back at once. Get returns buffers with
// UNDEFINED contents (zero them when the caller accumulates into the
// buffer). A Workspace is NOT safe for concurrent use; each owner — one
// trainer worker, one partition — keeps its own.
type Workspace struct {
	mats []*Matrix
	used int // buffers handed out since the last Reset
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Get returns a rows×cols matrix with undefined contents.
func (w *Workspace) Get(rows, cols int) *Matrix {
	if w.used == len(w.mats) {
		w.mats = append(w.mats, nil)
	}
	m := EnsureMat(&w.mats[w.used], rows, cols)
	w.used++
	return m
}

// Reset takes back every outstanding buffer. All matrices previously handed
// out become invalid for the caller: the next Gets will reuse their storage.
func (w *Workspace) Reset() { w.used = 0 }

// Scratch shapes that follow an epoch's sample — the sampled halo rows, the
// rows one peer asked for, the epoch graph's edges — move from epoch to epoch,
// and a buffer that fit an early epoch exactly would be reallocated at every
// new maximum. The Ensure helpers therefore allocate grow-only capacity with
// headroom. A row count is a sum of independent keep/drop draws, so it
// spreads by at most √rows around its mean: a matrix gets four of those on
// top of the rows asked for — a few per cent of a large matrix, most of a
// ten-row one. Flat slices (per-node and per-edge arrays, an order of
// magnitude smaller than the matrices beside them) get a plain eighth.

// growRows is the row capacity EnsureMat allocates for a request of rows.
func growRows(rows int) int { return rows + 4*int(math.Ceil(math.Sqrt(float64(rows)))) }

// EnsureMat returns a rows×cols matrix stored at *buf, reusing the existing
// storage when its capacity suffices (grow-only, with headroom: see
// growRows). Contents are UNDEFINED; callers must fully overwrite or
// explicitly zero. This is how layers and trainers keep owner-held scratch
// out of the allocator: after warm-up every call reuses the same backing
// arrays.
func EnsureMat(buf **Matrix, rows, cols int) *Matrix {
	m := *buf
	n := rows * cols
	if m == nil {
		m = &Matrix{}
		*buf = m
	}
	if cap(m.Data) < n {
		m.Data = make([]float32, n, growRows(rows)*cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// EnsureBits returns a bitset of rows·cols bits stored at *buf — one bit per
// element of a rows×cols matrix, packed in element order — with the row
// headroom EnsureMat gives that matrix, so a bitset kept beside an epoch-sized
// matrix regrows when the matrix would and not before. Contents are
// UNDEFINED.
func EnsureBits(buf *[]uint64, rows, cols int) []uint64 {
	n := (rows*cols + 63) / 64
	if cap(*buf) < n {
		*buf = make([]uint64, n, (growRows(rows)*cols+63)/64)
	}
	*buf = (*buf)[:n]
	return *buf
}

// EnsureLen returns a length-n slice stored at *buf with undefined contents,
// reusing capacity when possible (grow-only, with an eighth of headroom).
func EnsureLen[T any](buf *[]T, n int) []T {
	s := *buf
	if cap(s) < n {
		s = make([]T, n, n+n/8)
	} else {
		s = s[:n]
	}
	*buf = s
	return s
}

// EnsureF32 is EnsureLen for float32 slices.
func EnsureF32(buf *[]float32, n int) []float32 { return EnsureLen(buf, n) }

// EnsureI32 is EnsureLen for int32 slices.
func EnsureI32(buf *[]int32, n int) []int32 { return EnsureLen(buf, n) }
