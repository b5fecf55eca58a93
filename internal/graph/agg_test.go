package graph

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// randAggGraph builds a small random symmetric graph with some isolated
// nodes and one hub.
func randAggGraph(t *testing.T, n int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		u, v := int32(rng.Intn(n-2)), int32(rng.Intn(n-2)) // nodes n-2, n-1 stay isolated
		if u != v {
			b.AddEdge(u, v)
		}
	}
	for i := 1; i < n-2; i++ { // node 0 is a hub
		b.AddEdge(0, int32(i))
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAggIndexTranspose pins the incoming index: for every destination u,
// IncSrc lists exactly the sources v with u ∈ N(v), ascending, and IncEdge
// the position of each such edge in v's outgoing row.
func TestAggIndexTranspose(t *testing.T) {
	g := randAggGraph(t, 40, 1)
	ai := NewAggIndex(g)
	if len(ai.IncIndptr) != g.N+1 || int(ai.IncIndptr[g.N]) != len(g.Indices) {
		t.Fatalf("incoming index covers %d of %d arcs", ai.IncIndptr[g.N], len(g.Indices))
	}
	if len(ai.IncEdge) != len(ai.IncSrc) {
		t.Fatalf("%d incoming edge positions for %d incoming entries", len(ai.IncEdge), len(ai.IncSrc))
	}
	for u := int32(0); u < int32(g.N); u++ {
		incoming := ai.IncSrc[ai.IncIndptr[u]:ai.IncIndptr[u+1]]
		checkIncEdges(t, g, ai, u)
		var want []int32
		for v := int32(0); v < int32(g.N); v++ {
			for _, w := range g.Neighbors(v) {
				if w == u {
					want = append(want, v)
				}
			}
		}
		if len(incoming) != len(want) {
			t.Fatalf("node %d: %d incoming, want %d", u, len(incoming), len(want))
		}
		for i := range want {
			if incoming[i] != want[i] {
				t.Fatalf("node %d: incoming[%d]=%d, want %d (must ascend)", u, i, incoming[i], want[i])
			}
		}
	}
}

// checkIncEdges requires every incoming entry j of destination u to name an
// edge to u (Indices[IncEdge[j]] == u) that lies in source row IncSrc[j].
func checkIncEdges(t *testing.T, g *Graph, ai *AggIndex, u int32) {
	t.Helper()
	for j := ai.IncIndptr[u]; j < ai.IncIndptr[u+1]; j++ {
		e, v := int64(ai.IncEdge[j]), ai.IncSrc[j]
		if e < 0 || e >= int64(len(g.Indices)) || g.Indices[e] != u {
			t.Fatalf("node %d: incoming entry %d names edge %d, which does not point to it", u, j, e)
		}
		if e < g.Indptr[v] || e >= g.Indptr[v+1] {
			t.Fatalf("node %d: incoming entry %d names edge %d, outside source %d's row [%d,%d)", u, j, e, v, g.Indptr[v], g.Indptr[v+1])
		}
	}
}

// TestAggIndexRebuildInPlace pins the epoch-loop contract: rebuilding on a
// different graph reuses storage (no allocation once capacities warmed) and
// fully replaces the contents.
func TestAggIndexRebuildInPlace(t *testing.T) {
	big := randAggGraph(t, 60, 2)
	small := randAggGraph(t, 30, 3)
	ai := NewAggIndex(big)
	allocs := testing.AllocsPerRun(10, func() {
		ai.Build(small)
		ai.Build(big)
	})
	if allocs > 0 {
		t.Fatalf("steady-state rebuild allocates %v objects", allocs)
	}
	ai.Build(small)
	if len(ai.IncIndptr) != small.N+1 || int(ai.IncIndptr[small.N]) != len(small.Indices) ||
		len(ai.IncEdge) != len(small.Indices) {
		t.Fatal("rebuild did not replace contents")
	}
	for u := int32(0); u < int32(small.N); u++ {
		checkIncEdges(t, small, ai, u)
	}
}

// chunkWeights checks the EdgeChunks invariants and returns per-chunk
// weights.
func checkChunks(t *testing.T, indptr []int64, chunks []int32, target int64) {
	t.Helper()
	n := len(indptr) - 1
	if chunks[0] != 0 || chunks[len(chunks)-1] != int32(n) {
		t.Fatalf("chunk endpoints [%d,%d], want [0,%d]", chunks[0], chunks[len(chunks)-1], n)
	}
	for c := 0; c+1 < len(chunks); c++ {
		lo, hi := chunks[c], chunks[c+1]
		if lo >= hi {
			t.Fatalf("chunk %d empty or descending: [%d,%d)", c, lo, hi)
		}
		w := indptr[hi] - indptr[lo] + int64(hi-lo)*chunkRowCost
		if w > target && hi-lo > 1 {
			// A multi-row chunk may exceed target only via its last row.
			prev := indptr[hi-1] - indptr[lo] + int64(hi-1-lo)*chunkRowCost
			if prev >= target {
				t.Fatalf("chunk %d [%d,%d) weight %d exceeds target %d before its last row", c, lo, hi, w, target)
			}
		}
	}
}

func TestEdgeChunksBalance(t *testing.T) {
	g := randAggGraph(t, 100, 4)
	for _, target := range []int64{1, 16, 64, 1 << 20} {
		chunks := EdgeChunks(g.Indptr, target, nil)
		checkChunks(t, g.Indptr, chunks, target)
	}
	// A mega row must land in its own chunk when the target is below its
	// degree (node 0 is the hub).
	hubDeg := int64(g.Degree(0))
	chunks := EdgeChunks(g.Indptr, hubDeg/2, nil)
	checkChunks(t, g.Indptr, chunks, hubDeg/2)
	if chunks[1] != 1 {
		t.Fatalf("hub row not isolated: first boundary %d", chunks[1])
	}
}

func TestChunkTarget(t *testing.T) {
	g := randAggGraph(t, 200, 5)
	n := g.N
	total := g.Indptr[n] - g.Indptr[0] + int64(n)*chunkRowCost
	if tg := ChunkTarget(g.Indptr, 1); tg <= total {
		t.Fatalf("1-worker target %d must exceed total weight %d (single chunk)", tg, total)
	}
	tg := ChunkTarget(g.Indptr, 8)
	if tg < minChunkWeight {
		t.Fatalf("target %d below floor %d", tg, minChunkWeight)
	}
	chunks := EdgeChunks(g.Indptr, tg, nil)
	checkChunks(t, g.Indptr, chunks, tg)
}

// checkChunksCost is checkChunks with an explicit per-row weight.
func checkChunksCost(t *testing.T, indptr []int64, chunks []int32, target, rowCost int64) {
	t.Helper()
	n := len(indptr) - 1
	if chunks[0] != 0 || chunks[len(chunks)-1] != int32(n) {
		t.Fatalf("chunk endpoints [%d,%d], want [0,%d]", chunks[0], chunks[len(chunks)-1], n)
	}
	for c := 0; c+1 < len(chunks); c++ {
		lo, hi := chunks[c], chunks[c+1]
		if lo >= hi {
			t.Fatalf("chunk %d empty or descending: [%d,%d)", c, lo, hi)
		}
		w := indptr[hi] - indptr[lo] + int64(hi-lo)*rowCost
		if w > target && hi-lo > 1 {
			prev := indptr[hi-1] - indptr[lo] + int64(hi-1-lo)*rowCost
			if prev >= target {
				t.Fatalf("chunk %d [%d,%d) weight %d exceeds target %d before its last row", c, lo, hi, w, target)
			}
		}
	}
}

// maxChunkCost returns the heaviest chunk's weighted cost.
func maxChunkCost(indptr []int64, chunks []int32, rowCost int64) int64 {
	var worst int64
	for c := 0; c+1 < len(chunks); c++ {
		lo, hi := chunks[c], chunks[c+1]
		w := indptr[hi] - indptr[lo] + int64(hi-lo)*rowCost
		if w > worst {
			worst = w
		}
	}
	return worst
}

// TestEdgeChunksCostSkewedWideHidden is the regression the fused kernels'
// FLOP-weighted chunking exists for: a skewed-degree graph (one mega row,
// thousands of near-empty rows) under a wide hidden layer. Edge-count-only
// balancing cuts the low-degree run into a few huge chunks — cheap in edges,
// enormous in projection FLOPs — while cost-weighted cutting bounds every
// chunk's true cost by the target.
func TestEdgeChunksCostSkewedWideHidden(t *testing.T) {
	const n, megaDeg, workers = 4096, 32768, 8
	indptr := make([]int64, n+1)
	for v := 0; v < n; v++ {
		indptr[v+1] = indptr[v]
		if v == 0 {
			indptr[v+1] += megaDeg
		}
	}
	// Wide hidden: 2·OutDim edge-equivalents per row at OutDim=256.
	rowCost := chunkRowCost + int64(2*256)

	targetW := ChunkTargetCost(indptr, workers, rowCost)
	weighted := EdgeChunksCost(indptr, targetW, rowCost, nil)
	checkChunksCost(t, indptr, weighted, targetW, rowCost)

	unweighted := EdgeChunks(indptr, ChunkTarget(indptr, workers), nil)
	worstUnweighted := maxChunkCost(indptr, unweighted, rowCost)
	worstWeighted := maxChunkCost(indptr, weighted, rowCost)
	if worstWeighted*2 > worstUnweighted {
		t.Fatalf("weighted cutting bought <2x: worst chunk cost %d vs %d edge-balanced",
			worstWeighted, worstUnweighted)
	}
}

// TestAggIndexChunksFor pins the lazy weighted-chunk cache: valid boundaries,
// extraRowCost=0 degenerating to the Chunks weighting, slice reuse across
// calls, allocation-free steady state, and invalidation after Build.
func TestAggIndexChunksFor(t *testing.T) {
	big := randAggGraph(t, 120, 7)
	small := randAggGraph(t, 40, 8)
	ai := NewAggIndex(big)

	const extra = 512
	c1 := ai.ChunksFor(extra)
	checkChunksCost(t, big.Indptr, c1, ChunkTargetCost(big.Indptr, tensor.Parallelism(), chunkRowCost+extra), chunkRowCost+extra)

	// Zero extra cost must reproduce the edge-balanced Chunks list.
	c0 := ai.ChunksFor(0)
	if len(c0) != len(ai.Chunks) {
		t.Fatalf("ChunksFor(0) has %d boundaries, Chunks %d", len(c0), len(ai.Chunks))
	}
	for i := range c0 {
		if c0[i] != ai.Chunks[i] {
			t.Fatalf("ChunksFor(0)[%d] = %d, Chunks %d", i, c0[i], ai.Chunks[i])
		}
	}

	// Same cost again: cached, same backing array, no recompute.
	c2 := ai.ChunksFor(extra)
	if &c1[0] != &c2[0] {
		t.Fatal("repeated ChunksFor did not reuse the cached list")
	}

	// Steady state is allocation-free once both graph sizes have been seen.
	ai.Build(small)
	ai.ChunksFor(extra)
	allocs := testing.AllocsPerRun(10, func() {
		ai.Build(big)
		ai.ChunksFor(extra)
		ai.Build(small)
		ai.ChunksFor(extra)
	})
	if allocs > 0 {
		t.Fatalf("steady-state ChunksFor allocates %v objects", allocs)
	}

	// After the last Build the list must describe the small graph.
	if got := ai.ChunksFor(extra); got[len(got)-1] != int32(small.N) {
		t.Fatalf("post-rebuild list ends at %d, want %d", got[len(got)-1], small.N)
	}
}

func TestDegreeSkewHistogram(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1) // deg(0)=1 after dedup with below
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(0, 4)
	g := b.Build() // deg: 0→4, 1..4→1, 5→0
	h := DegreeSkewHistogramFromIndptr(g.Indptr)
	if h[0] != 1 { // the isolated node
		t.Fatalf("bucket 0 = %d, want 1", h[0])
	}
	if h[1] != 4 { // the four degree-1 leaves
		t.Fatalf("bucket 1 = %d, want 4", h[1])
	}
	if h[3] != 1 { // degree 4 lands in [4,8)
		t.Fatalf("bucket 3 = %d, want 1", h[3])
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != g.N {
		t.Fatalf("histogram covers %d of %d nodes", total, g.N)
	}
}

// TestDegreeStatsFromIndptr pins AvgDegree (O(1) from the Indptr endpoints)
// and MaxDegree (single Indptr pass) including the empty graph.
func TestDegreeStatsFromIndptr(t *testing.T) {
	g := randAggGraph(t, 50, 6)
	wantMax := 0
	var sum int
	for v := int32(0); v < int32(g.N); v++ {
		d := g.Degree(v)
		sum += d
		if d > wantMax {
			wantMax = d
		}
	}
	if got := g.MaxDegree(); got != wantMax {
		t.Fatalf("MaxDegree = %d, want %d", got, wantMax)
	}
	if got := g.AvgDegree(); got != float64(sum)/float64(g.N) {
		t.Fatalf("AvgDegree = %v, want %v", got, float64(sum)/float64(g.N))
	}
	empty := &Graph{N: 0, Indptr: []int64{0}}
	if empty.MaxDegree() != 0 || empty.AvgDegree() != 0 {
		t.Fatal("empty graph degree stats must be zero")
	}
}
