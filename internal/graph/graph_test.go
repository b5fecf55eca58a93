package graph

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// triangle returns the 3-cycle on {0,1,2}.
func triangle() *Graph {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	return b.Build()
}

func TestBuilderBasic(t *testing.T) {
	g := triangle()
	if g.N != 3 || g.NumEdges() != 3 {
		t.Fatalf("triangle: N=%d edges=%d", g.N, g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestBuilderDedupesAndDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate in reverse
	b.AddEdge(0, 1) // exact duplicate
	b.AddEdge(2, 2) // self loop
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("want 1 edge after dedupe, got %d", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatalf("self loop not dropped: degree(2)=%d", g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestHasEdge(t *testing.T) {
	g := triangle()
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("missing edge 0-1")
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g2 := b.Build()
	if g2.HasEdge(2, 3) {
		t.Fatal("phantom edge 2-3")
	}
}

func TestNeighborsSortedShared(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(2, 4)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	g := b.Build()
	nbrs := g.Neighbors(2)
	want := []int32{0, 3, 4}
	if len(nbrs) != 3 {
		t.Fatalf("neighbors = %v", nbrs)
	}
	for i, w := range want {
		if nbrs[i] != w {
			t.Fatalf("neighbors = %v, want %v", nbrs, want)
		}
	}
}

func randomGraph(rng *tensor.RNG, n, edges int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func TestRandomGraphsValidate(t *testing.T) {
	rng := tensor.NewRNG(5)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(100)
		g := randomGraph(rng, n, rng.Intn(4*n))
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	// Path 0-1-2-3 plus edge 0-3.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(0, 3)
	g := b.Build()
	sub := InducedSubgraph(g, []int32{3, 1, 2})
	// Local ids: 3->0, 1->1, 2->2. Kept edges: (1,2)->(1,2), (2,3)->(2,0).
	if sub.N != 3 || sub.NumEdges() != 2 {
		t.Fatalf("sub: N=%d edges=%d", sub.N, sub.NumEdges())
	}
	if !sub.HasEdge(1, 2) || !sub.HasEdge(0, 2) {
		t.Fatal("wrong induced edges")
	}
	if sub.HasEdge(0, 1) {
		t.Fatal("edge 3-1 should not exist")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraphProperty(t *testing.T) {
	// Induced subgraph on all nodes in identity order equals the original.
	rng := tensor.NewRNG(6)
	g := randomGraph(rng, 50, 150)
	all := make([]int32, g.N)
	for i := range all {
		all[i] = int32(i)
	}
	sub := InducedSubgraph(g, all)
	if sub.NumEdges() != g.NumEdges() {
		t.Fatalf("identity induction changed edges: %d vs %d", sub.NumEdges(), g.NumEdges())
	}
	for v := int32(0); v < int32(g.N); v++ {
		if sub.Degree(v) != g.Degree(v) {
			t.Fatalf("degree changed at %d", v)
		}
	}
}

func TestInducedSubgraphEdgeCountNeverGrows(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 5 + rng.Intn(60)
		g := randomGraph(rng, n, 3*n)
		k := 1 + rng.Intn(n)
		perm := rng.Perm(n)
		sub := InducedSubgraph(g, perm[:k])
		return sub.NumEdges() <= g.NumEdges() && sub.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeStats(t *testing.T) {
	g := triangle()
	if g.AvgDegree() != 2 || g.MaxDegree() != 2 {
		t.Fatalf("avg=%v max=%d", g.AvgDegree(), g.MaxDegree())
	}
}

func TestIORoundTrip(t *testing.T) {
	rng := tensor.NewRNG(7)
	g := randomGraph(rng, 80, 300)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", g2.N, g2.NumEdges(), g.N, g.NumEdges())
	}
	for i, v := range g.Indptr {
		if g2.Indptr[i] != v {
			t.Fatal("indptr mismatch")
		}
	}
	for i, v := range g.Indices {
		if g2.Indices[i] != v {
			t.Fatal("indices mismatch")
		}
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("expected error on bad magic")
	}
}

func TestSaveLoadFile(t *testing.T) {
	rng := tensor.NewRNG(8)
	g := randomGraph(rng, 20, 40)
	path := t.TempDir() + "/g.bin"
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.NumDirectedEdges() != g.NumDirectedEdges() {
		t.Fatal("file round trip mismatch")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 || g.AvgDegree() != 0 {
		t.Fatal("empty graph stats wrong")
	}
}
