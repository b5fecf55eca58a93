package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"
)

func TestIOReadWriteRoundTrip(t *testing.T) {
	g := triangle()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || len(g2.Indices) != len(g.Indices) {
		t.Fatalf("round trip: N=%d nnz=%d, want N=%d nnz=%d", g2.N, len(g2.Indices), g.N, len(g.Indices))
	}
	for i := range g.Indptr {
		if g2.Indptr[i] != g.Indptr[i] {
			t.Fatalf("indptr[%d] = %d, want %d", i, g2.Indptr[i], g.Indptr[i])
		}
	}
	for i := range g.Indices {
		if g2.Indices[i] != g.Indices[i] {
			t.Fatalf("indices[%d] = %d, want %d", i, g2.Indices[i], g.Indices[i])
		}
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

// rawGraph hand-assembles the binary format so each field can be corrupted
// independently of the writer's invariants.
func rawGraph(n, nnz int64, indptr []int64, indices []int32) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, magic)
	binary.Write(&buf, binary.LittleEndian, n)
	binary.Write(&buf, binary.LittleEndian, nnz)
	binary.Write(&buf, binary.LittleEndian, indptr)
	binary.Write(&buf, binary.LittleEndian, indices)
	return buf.Bytes()
}

// TestReadRejectsCorruptGraphs: a graph file is untrusted input, and every
// violated invariant must be rejected with a pointed error — not an OOM on a
// header claiming 2^62 edges, not an index panic deep inside SpMM.
func TestReadRejectsCorruptGraphs(t *testing.T) {
	// The valid baseline these corruptions mutate: 3 nodes, 4 directed edges.
	indptr := []int64{0, 2, 3, 4}
	indices := []int32{1, 2, 0, 0}

	cases := []struct {
		name    string
		raw     []byte
		wantErr string
	}{
		{"huge-n", rawGraph(1<<60, 0, nil, nil), "int32 node-id space"},
		// Claims ~2^61 edges behind a 3-node header; must die on a short
		// read after at most one chunk, never attempt the full allocation.
		{"huge-nnz", rawGraph(3, 1<<61, indptr, indices), "indices"},
		{"negative-n", rawGraph(-1, 0, nil, nil), "negative sizes"},
		{"negative-nnz", rawGraph(3, -4, indptr, indices), "negative sizes"},
		{"indptr-nonzero-start", rawGraph(3, 4, []int64{1, 2, 3, 4}, indices), "indptr[0]"},
		{"indptr-decreasing", rawGraph(3, 4, []int64{0, 3, 2, 4}, indices), "not monotonic"},
		{"indptr-wrong-end", rawGraph(3, 4, []int64{0, 2, 3, 5}, indices), "ends at"},
		{"index-out-of-range", rawGraph(3, 4, indptr, []int32{1, 2, 3, 0}), "outside [0,3)"},
		{"index-negative", rawGraph(3, 4, indptr, []int32{1, 2, -1, 0}), "outside [0,3)"},
		{"truncated-indices", rawGraph(3, 4, indptr, []int32{1, 2}), "indices"},
		{"truncated-indptr", rawGraph(3, 4, []int64{0, 2}, nil), "indptr"},
		{"bad-magic", append([]byte{0xde, 0xad, 0xbe, 0xef}, rawGraph(3, 4, indptr, indices)[4:]...), "bad magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan struct{})
			var g *Graph
			var err error
			go func() {
				g, err = Read(bytes.NewReader(tc.raw))
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Read hung (likely attempting a huge allocation)")
			}
			if err == nil {
				t.Fatalf("Read accepted a corrupt graph (N=%d)", g.N)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	// The valid baseline itself must load: the corruptions above fail for
	// the stated reasons, not because the baseline was malformed.
	g, err := Read(bytes.NewReader(rawGraph(3, 4, indptr, indices)))
	if err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}
	if g.N != 3 || len(g.Indices) != 4 {
		t.Fatalf("baseline loaded as N=%d nnz=%d", g.N, len(g.Indices))
	}
}

// TestReadEmptyGraph: the degenerate shapes stay loadable.
func TestReadEmptyGraph(t *testing.T) {
	g, err := Read(bytes.NewReader(rawGraph(0, 0, []int64{0}, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 0 || len(g.Indices) != 0 {
		t.Fatalf("empty graph loaded as N=%d nnz=%d", g.N, len(g.Indices))
	}
	// Isolated nodes: real N, zero edges.
	g, err = Read(bytes.NewReader(rawGraph(2, 0, []int64{0, 0, 0}, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 2 || len(g.Indices) != 0 {
		t.Fatalf("edgeless graph loaded as N=%d nnz=%d", g.N, len(g.Indices))
	}
}

// FuzzGraphRead feeds arbitrary bytes to Read. It may refuse them; what it
// accepts is a graph the kernels can index without bounds checks — indptr
// monotone from 0 to nnz, every index in [0, N) — and Write of it gives back
// the bytes it was read from: Read consumes a prefix of its input, and the
// format has one encoding per graph. The committed corpus holds
// TestReadRejectsCorruptGraphs' cases and a valid round trip.
func FuzzGraphRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(g.Indptr) != g.N+1 || g.Indptr[0] != 0 || g.Indptr[g.N] != int64(len(g.Indices)) {
			t.Fatalf("accepted N=%d with %d indptr entries running %d..%d over %d indices",
				g.N, len(g.Indptr), g.Indptr[0], g.Indptr[len(g.Indptr)-1], len(g.Indices))
		}
		for v := 1; v <= g.N; v++ {
			if g.Indptr[v] < g.Indptr[v-1] {
				t.Fatalf("accepted indptr decreasing at node %d (%d < %d)", v, g.Indptr[v], g.Indptr[v-1])
			}
		}
		for i, u := range g.Indices {
			if u < 0 || int(u) >= g.N {
				t.Fatalf("accepted indices[%d] = %d outside [0,%d)", i, u, g.N)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("Write of the accepted graph (%d bytes) is not a prefix of the %d input bytes", buf.Len(), len(data))
		}
	})
}
