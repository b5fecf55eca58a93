// Package tensor provides dense row-major float32 matrices and the small set
// of linear-algebra kernels needed for GCN training: blocked matrix
// multiplication, CSR sparse aggregation (SpMM), the fused aggregate-project
// kernels of the SAGE layer, row gathers, and elementwise operations.
//
// Every row-independent kernel is one body that computes a list of rows,
// and all of them run on one dispatcher (matmul.go) that hands row sets —
// explicit lists or contiguous ranges, cut by grain or by a caller's
// edge-balanced chunk list — to a persistent worker pool. Which entry point
// (full, Range, Rows) and which worker computes a row never changes its
// bits.
//
// It is the stand-in for the GPU tensor library used by the paper's PyTorch
// implementation; the numerics are identical, only absolute speed differs.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix. The zero value is an empty
// matrix; use New or NewFrom to allocate storage.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewFrom wraps data (not copied) as a rows×cols matrix.
func NewFrom(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a slice sharing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Scale multiplies every element by a.
func (m *Matrix) Scale(a float32) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// Add accumulates other into m elementwise. Shapes must match.
func (m *Matrix) Add(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: Add shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	for i, v := range other.Data {
		m.Data[i] += v
	}
}

// Sub subtracts other from m elementwise.
func (m *Matrix) Sub(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	for i, v := range other.Data {
		m.Data[i] -= v
	}
}

// FrobeniusNorm returns the Frobenius norm of m, accumulated in float64.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements, accumulated in float64.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float32 {
	var mx float32
	for _, v := range m.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > mx {
			mx = a
		}
	}
	return mx
}

// Equal reports whether m and other have the same shape and all elements
// within tol of each other.
func (m *Matrix) Equal(other *Matrix, tol float32) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range other.Data {
		d := m.Data[i] - v
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

// GatherRows returns a new matrix whose i-th row is src.Row(idx[i]).
func GatherRows(src *Matrix, idx []int32) *Matrix {
	out := New(len(idx), src.Cols)
	GatherRowsInto(out, src, idx)
	return out
}

// GatherRowsInto is GatherRows writing into a caller-owned matrix (which
// must be len(idx) × src.Cols), for allocation-free batch loops.
func GatherRowsInto(out, src *Matrix, idx []int32) {
	if out.Rows != len(idx) || out.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: GatherRowsInto out %dx%d, want %dx%d", out.Rows, out.Cols, len(idx), src.Cols))
	}
	for i, r := range idx {
		copy(out.Row(i), src.Row(int(r)))
	}
}
