package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Binary graph format: a small magic header followed by N, the indptr array
// and the indices array, all little-endian. cmd/bnspart writes it (-save)
// and reads it (-load), and cmd/bnsserve serves a graph read from it
// (-graph).

const magic = uint32(0x42534743) // "BSGC"

// Write serializes g to w in the binary CSR format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, magic); err != nil {
		return fmt.Errorf("graph: write magic: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(g.N)); err != nil {
		return fmt.Errorf("graph: write n: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(len(g.Indices))); err != nil {
		return fmt.Errorf("graph: write nnz: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Indptr); err != nil {
		return fmt.Errorf("graph: write indptr: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Indices); err != nil {
		return fmt.Errorf("graph: write indices: %w", err)
	}
	return bw.Flush()
}

// readChunkLimit bounds how many array entries a single allocation commits
// to before any of the claimed bytes have actually materialized. A corrupt
// header can claim 2^62 entries; growing the arrays chunk by chunk turns
// that into a short-read error after ~8MB instead of an OOM.
const readChunkLimit = 1 << 20

// readInt64s reads count little-endian int64s from br in bounded chunks.
func readInt64s(br io.Reader, count int64, what string) ([]int64, error) {
	out := make([]int64, 0, min64(count, readChunkLimit))
	for int64(len(out)) < count {
		chunk := min64(count-int64(len(out)), readChunkLimit)
		buf := make([]int64, chunk)
		if err := binary.Read(br, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("graph: read %s (%d of %d entries): %w", what, len(out), count, err)
		}
		out = append(out, buf...)
	}
	return out, nil
}

// readInt32s reads count little-endian int32s from br in bounded chunks.
func readInt32s(br io.Reader, count int64, what string) ([]int32, error) {
	out := make([]int32, 0, min64(count, readChunkLimit))
	for int64(len(out)) < count {
		chunk := min64(count-int64(len(out)), readChunkLimit)
		buf := make([]int32, chunk)
		if err := binary.Read(br, binary.LittleEndian, buf); err != nil {
			return nil, fmt.Errorf("graph: read %s (%d of %d entries): %w", what, len(out), count, err)
		}
		out = append(out, buf...)
	}
	return out, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Read deserializes a graph written by Write. The file is untrusted input:
// sizes are allocated in bounded chunks (a corrupt header claiming 2^62
// edges dies on a short read, not an OOM), Indptr must start at 0, be
// non-decreasing, and end at nnz, and every index must fall in [0,N) — the
// SpMM kernels index straight off these arrays with no bounds checks of
// their own, so a violation here is rejected with a pointed error instead of
// a panic (or silent corruption) deep in the compute path.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var m uint32
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("graph: read magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("graph: bad magic %#x", m)
	}
	var n, nnz int64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("graph: read n: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &nnz); err != nil {
		return nil, fmt.Errorf("graph: read nnz: %w", err)
	}
	if n < 0 || nnz < 0 {
		return nil, fmt.Errorf("graph: negative sizes n=%d nnz=%d", n, nnz)
	}
	if n > 1<<31 {
		return nil, fmt.Errorf("graph: n=%d exceeds the int32 node-id space", n)
	}
	indptr, err := readInt64s(br, n+1, "indptr")
	if err != nil {
		return nil, err
	}
	indices, err := readInt32s(br, nnz, "indices")
	if err != nil {
		return nil, err
	}
	if indptr[0] != 0 {
		return nil, fmt.Errorf("graph: indptr[0] = %d, want 0", indptr[0])
	}
	for v := int64(1); v <= n; v++ {
		if indptr[v] < indptr[v-1] {
			return nil, fmt.Errorf("graph: indptr not monotonic at node %d (%d < %d)", v, indptr[v], indptr[v-1])
		}
	}
	if indptr[n] != nnz {
		return nil, fmt.Errorf("graph: indptr ends at %d, want nnz=%d", indptr[n], nnz)
	}
	for i, idx := range indices {
		if int64(idx) < 0 || int64(idx) >= n {
			return nil, fmt.Errorf("graph: indices[%d] = %d outside [0,%d)", i, idx, n)
		}
	}
	return &Graph{N: int(n), Indptr: indptr, Indices: indices}, nil
}

// SaveFile writes g to path, creating or truncating it.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a graph from path.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
