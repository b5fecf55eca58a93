// Package graph provides the compressed-sparse-row (CSR) graph structure and
// the subgraph operations used throughout the BNS-GCN reproduction: building
// from edge lists, node-induced subgraphs, degree statistics and validation.
//
// Graphs are undirected and stored symmetrically: every edge (u,v) appears in
// both u's and v's adjacency lists, matching the paper's GCN setting where
// neighbor aggregation is over the undirected neighborhood.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected graph in CSR form. Node ids are dense in [0, N).
// Indptr has length N+1; the neighbors of node v are
// Indices[Indptr[v]:Indptr[v+1]], sorted ascending with no duplicates and no
// self-loops (self-loops are handled by the GCN layers themselves).
type Graph struct {
	N       int
	Indptr  []int64
	Indices []int32
}

// NumEdges returns the number of undirected edges (each stored twice).
func (g *Graph) NumEdges() int64 { return int64(len(g.Indices)) / 2 }

// NumDirectedEdges returns the number of stored (directed) adjacency entries.
func (g *Graph) NumDirectedEdges() int64 { return int64(len(g.Indices)) }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int {
	return int(g.Indptr[v+1] - g.Indptr[v])
}

// Neighbors returns the (shared, read-only) neighbor slice of v.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.Indices[g.Indptr[v]:g.Indptr[v+1]]
}

// AvgDegree returns the average node degree, O(1) from the Indptr endpoints
// (the stored arc count over the node count).
func (g *Graph) AvgDegree() float64 {
	if g.N == 0 {
		return 0
	}
	return float64(g.Indptr[g.N]-g.Indptr[0]) / float64(g.N)
}

// MaxDegree returns the largest node degree. A true O(1) answer would need a
// cached field, which the in-place epoch-subgraph rebuild would silently
// stale — so this stays a single branch-light pass over adjacent Indptr
// entries, with no per-node method calls or Indices touches.
func (g *Graph) MaxDegree() int {
	if g.N == 0 {
		return 0 // zero-value Graph has nil Indptr
	}
	var mx int64
	prev := g.Indptr[0]
	for _, p := range g.Indptr[1 : g.N+1] {
		if d := p - prev; d > mx {
			mx = d
		}
		prev = p
	}
	return int(mx)
}

// HasEdge reports whether u and v are adjacent (binary search).
func (g *Graph) HasEdge(u, v int32) bool {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	return i < len(nbrs) && nbrs[i] == v
}

// Validate checks the CSR invariants: monotone indptr, sorted unique
// neighbor lists, no self loops, symmetric adjacency, ids in range.
func (g *Graph) Validate() error {
	if len(g.Indptr) != g.N+1 {
		return fmt.Errorf("graph: indptr length %d, want %d", len(g.Indptr), g.N+1)
	}
	if g.Indptr[0] != 0 || g.Indptr[g.N] != int64(len(g.Indices)) {
		return fmt.Errorf("graph: indptr endpoints [%d,%d], want [0,%d]", g.Indptr[0], g.Indptr[g.N], len(g.Indices))
	}
	for v := 0; v < g.N; v++ {
		if g.Indptr[v] > g.Indptr[v+1] {
			return fmt.Errorf("graph: indptr not monotone at %d", v)
		}
		nbrs := g.Indices[g.Indptr[v]:g.Indptr[v+1]]
		for i, u := range nbrs {
			if u < 0 || int(u) >= g.N {
				return fmt.Errorf("graph: node %d neighbor %d out of range", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if i > 0 && nbrs[i-1] >= u {
				return fmt.Errorf("graph: node %d neighbors not sorted/unique", v)
			}
		}
	}
	// Symmetry: count directed edges per (min,max) pair cheaply by checking
	// each stored arc has its reverse.
	for v := int32(0); v < int32(g.N); v++ {
		for _, u := range g.Neighbors(v) {
			if !g.HasEdge(u, v) {
				return fmt.Errorf("graph: missing reverse edge %d->%d", u, v)
			}
		}
	}
	return nil
}

// Builder accumulates undirected edges and produces a canonical Graph.
type Builder struct {
	n   int
	src []int32
	dst []int32
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge records the undirected edge (u,v). Self-loops and duplicates are
// tolerated and removed at Build time.
func (b *Builder) AddEdge(u, v int32) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.src = append(b.src, u, v)
	b.dst = append(b.dst, v, u)
}

// Build produces the canonical CSR graph: symmetric, sorted, deduplicated,
// self-loop-free. The builder can be reused afterwards.
func (b *Builder) Build() *Graph {
	n := b.n
	// Counting sort arcs by source.
	counts := make([]int64, n+1)
	for _, s := range b.src {
		counts[s+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	indptr := make([]int64, n+1)
	copy(indptr, counts)
	indices := make([]int32, len(b.src))
	fill := make([]int64, n)
	for i, s := range b.src {
		indices[indptr[s]+fill[s]] = b.dst[i]
		fill[s]++
	}
	// Sort, dedupe, drop self loops per row; compact in place.
	out := indices[:0]
	newptr := make([]int64, n+1)
	for v := 0; v < n; v++ {
		row := indices[indptr[v]:indptr[v+1]]
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		start := len(out)
		var prev int32 = -1
		for _, u := range row {
			if u == int32(v) || u == prev {
				continue
			}
			out = append(out, u)
			prev = u
		}
		newptr[v+1] = newptr[v] + int64(len(out)-start)
	}
	final := make([]int32, len(out))
	copy(final, out)
	return &Graph{N: n, Indptr: newptr, Indices: final}
}

// InducedSubgraph returns the node-induced subgraph on nodes (which need not
// be sorted), plus the mapping from new local ids to original ids (= nodes as
// given). Edges are kept iff both endpoints are in nodes. Local ids follow
// the order of the input slice.
func InducedSubgraph(g *Graph, nodes []int32) *Graph {
	local := make(map[int32]int32, len(nodes))
	for i, v := range nodes {
		local[v] = int32(i)
	}
	b := NewBuilder(len(nodes))
	for i, v := range nodes {
		for _, u := range g.Neighbors(v) {
			if lu, ok := local[u]; ok && lu > int32(i) { // add each edge once
				b.AddEdge(int32(i), lu)
			}
		}
	}
	return b.Build()
}
