package graph

import (
	"math/bits"

	"repro/internal/tensor"
)

// AggIndex is the aggregation plan the sparse SpMM engine runs over one
// graph: edge-balanced row-chunk boundaries for the forward gather, and the
// transposed (incoming) CSR index plus its own chunk boundaries for the
// backward gather dH = Aᵀ·dZ. Building it is O(N+E) integer work — far below
// one layer's O(E·dim) float aggregation — and all storage is reused across
// Build calls, so the per-epoch rebuild in the training loop is
// allocation-free once capacities have warmed up.
//
// Ownership: an AggIndex must be rebuilt whenever the graph it was built
// from changes (the per-epoch subgraph is rewritten in place every epoch).
// Its owner is whoever owns the graph (core.Layout holds the pair); a layer
// holds the pointer only from the start of a pass to the end of its backward.
type AggIndex struct {
	// Chunks holds edge-balanced row-chunk boundaries over the outgoing CSR:
	// ascending, Chunks[0] = 0, Chunks[len-1] = N. One worker claims one
	// chunk, so a mega-degree row is isolated in its own chunk rather than
	// serializing a worker's whole share.
	Chunks []int32
	// IncIndptr/IncSrc is the transposed index: the sources of destination u
	// are IncSrc[IncIndptr[u]:IncIndptr[u+1]], sorted ascending (duplicates
	// adjacent) — the order that makes the backward gather bit-identical to
	// an ascending-source scatter.
	IncIndptr []int64
	IncSrc    []int32
	// IncEdge is, per incoming entry, the position in the outgoing CSR's
	// Indices of the edge it transposes: IncSrc[j] = v and
	// Indices[IncEdge[j]] = u for the entry j of destination u. A per-edge
	// value the forward wrote at an edge's position (GAT's attention) is
	// read by the backward gather through it.
	IncEdge []int32
	// IncChunks is the edge-balanced boundary list over the transposed index.
	IncChunks []int32

	fill []int64 // build scratch: per-destination write cursor

	// ChunksFor state: the outgoing CSR the plan was built from, a build
	// generation counter, and one cached weighted-chunk list per row cost.
	outIndptr []int64
	gen       uint64
	costCache []costChunks
}

// costChunks is one ChunksFor cache entry: the chunk list for a per-row
// extra cost, tagged with the build generation it was derived at.
type costChunks struct {
	extraRowCost int64
	gen          uint64
	chunks       []int32
}

// NewAggIndex builds the aggregation plan for g.
func NewAggIndex(g *Graph) *AggIndex {
	ai := &AggIndex{}
	ai.Build(g)
	return ai
}

// Build (re)derives the plan from g, reusing all prior storage.
func (ai *AggIndex) Build(g *Graph) {
	n := g.N
	e := len(g.Indices)

	// Transposed index: count incoming edges, prefix-sum, fill ascending.
	// The plan's arrays are grow-only with headroom (tensor.EnsureLen): the
	// epoch subgraph's node and edge counts follow the epoch's sample, and a
	// slightly larger epoch must not mean a reallocation.
	tensor.EnsureLen(&ai.IncIndptr, n+1)
	cnt := tensor.EnsureLen(&ai.fill, n)
	for i := range cnt {
		cnt[i] = 0
	}
	for _, u := range g.Indices {
		cnt[u]++
	}
	ai.IncIndptr[0] = 0
	for u := 0; u < n; u++ {
		ai.IncIndptr[u+1] = ai.IncIndptr[u] + cnt[u]
		cnt[u] = 0
	}
	tensor.EnsureLen(&ai.IncSrc, e)
	tensor.EnsureLen(&ai.IncEdge, e)
	for v := 0; v < n; v++ {
		lo := g.Indptr[v]
		for i, u := range g.Indices[lo:g.Indptr[v+1]] {
			j := ai.IncIndptr[u] + cnt[u]
			ai.IncSrc[j] = int32(v)
			ai.IncEdge[j] = int32(lo) + int32(i)
			cnt[u]++
		}
	}

	target := ChunkTarget(g.Indptr, tensor.Parallelism())
	ai.Chunks = EdgeChunks(g.Indptr, target, ai.Chunks[:0])
	ai.IncChunks = EdgeChunks(ai.IncIndptr, target, ai.IncChunks[:0])

	// Weighted chunk lists are derived lazily: bump the generation so every
	// cached ChunksFor entry recomputes against the fresh indptr on first use.
	ai.outIndptr = g.Indptr
	ai.gen++
}

// ChunksFor returns edge-balanced chunk boundaries over the outgoing CSR
// where every row weighs extraRowCost edge-equivalents on top of its edge
// count (and the baseline per-row cost). The fused aggregate-project kernel
// needs this: projection adds 2·InDim·OutDim FLOPs per row — about 2·OutDim
// edge-equivalents, since one edge gather is an InDim-wide add — so
// edge-count-only balancing hands a worker whose rows are low-degree far more
// projection work than its chunk weight suggests on wide layers.
// extraRowCost = 0 degenerates to the Chunks weighting.
//
// Lists are cached per cost and rebuilt lazily after each Build, reusing
// their storage — allocation-free in steady state, like Build itself. Not
// safe for concurrent use (same contract as Build).
func (ai *AggIndex) ChunksFor(extraRowCost int64) []int32 {
	if extraRowCost < 0 {
		extraRowCost = 0
	}
	for i := range ai.costCache {
		e := &ai.costCache[i]
		if e.extraRowCost == extraRowCost {
			if e.gen != ai.gen {
				ai.fillCostChunks(e)
			}
			return e.chunks
		}
	}
	ai.costCache = append(ai.costCache, costChunks{extraRowCost: extraRowCost})
	e := &ai.costCache[len(ai.costCache)-1]
	ai.fillCostChunks(e)
	return e.chunks
}

func (ai *AggIndex) fillCostChunks(e *costChunks) {
	rowCost := chunkRowCost + e.extraRowCost
	target := ChunkTargetCost(ai.outIndptr, tensor.Parallelism(), rowCost)
	e.chunks = EdgeChunksCost(ai.outIndptr, target, rowCost, e.chunks[:0])
	e.gen = ai.gen
}

// chunkRowCost is the fixed per-row weight EdgeChunks adds to a row's edge
// count, so runs of empty or low-degree rows still cut into chunks instead
// of piling into one worker's claim.
const chunkRowCost = 4

// minChunkWeight floors the chunk target: below this the per-chunk claim
// overhead (one atomic advance + one pool handoff) outweighs the balance win.
const minChunkWeight = 2048

// ChunkTarget picks the edge-balanced chunk weight for a CSR index and a
// worker count. The degree-skew histogram drives the oversubscription
// factor: a heavy tail (max-degree bucket far above the average's bucket)
// gets twice the chunks, so the dynamic claim can route small chunks around
// the mega rows that each occupy a worker for a whole chunk's worth of time.
func ChunkTarget(indptr []int64, workers int) int64 {
	return ChunkTargetCost(indptr, workers, chunkRowCost)
}

// ChunkTargetCost is ChunkTarget with an explicit per-row weight (edge
// equivalents added to each row's edge count) — the fused aggregate-project
// kernels account their per-row projection FLOPs this way (see
// AggIndex.ChunksFor).
func ChunkTargetCost(indptr []int64, workers int, rowCost int64) int64 {
	n := len(indptr) - 1
	if n <= 0 {
		return minChunkWeight
	}
	total := indptr[n] - indptr[0] + int64(n)*rowCost
	if workers <= 1 {
		// One worker claims everything anyway: a single chunk skips the
		// whole claim machinery on 1-CPU hosts.
		return total + minChunkWeight
	}
	over := int64(4)
	if skew := histogramSkew(indptr); skew >= 3 {
		over = 8
	}
	target := total / (int64(workers) * over)
	if target < minChunkWeight {
		target = minChunkWeight
	}
	return target
}

// histogramSkew returns the distance, in log2 degree buckets, between the
// largest occupied bucket and the average degree's bucket — 0 for a regular
// graph, large when a few mega rows dominate.
func histogramSkew(indptr []int64) int {
	n := len(indptr) - 1
	hist := DegreeSkewHistogramFromIndptr(indptr)
	top := 0
	for b, c := range hist {
		if c > 0 {
			top = b
		}
	}
	avg := int((indptr[n] - indptr[0]) / int64(n))
	return top - bits.Len(uint(avg))
}

// EdgeChunks cuts the CSR rows into contiguous chunks of roughly target
// weight (edge count plus chunkRowCost per row): boundaries are ascending,
// start at 0, end at the row count, and a chunk exceeds target only when a
// single row does. The result is appended to into (pass into[:0] to reuse).
func EdgeChunks(indptr []int64, target int64, into []int32) []int32 {
	return EdgeChunksCost(indptr, target, chunkRowCost, into)
}

// EdgeChunksCost is EdgeChunks with an explicit per-row weight, the cutting
// half of the ChunkTargetCost pairing.
func EdgeChunksCost(indptr []int64, target, rowCost int64, into []int32) []int32 {
	n := len(indptr) - 1
	if target < 1 {
		target = 1
	}
	into = append(into, 0)
	var w int64
	for v := 0; v < n; v++ {
		w += indptr[v+1] - indptr[v] + rowCost
		if w >= target {
			into = append(into, int32(v+1))
			w = 0
		}
	}
	if into[len(into)-1] != int32(n) {
		into = append(into, int32(n))
	}
	return into
}

// DegreeSkewHistogramFromIndptr counts the nodes of a raw CSR indptr per
// log2 degree bucket: bucket 0 holds the isolated nodes, bucket b ≥ 1 the
// nodes with degree in [2^(b-1), 2^b). The compact fixed-size summary is
// what the chunk sizing reads — a heavy tail shows up as occupied high
// buckets regardless of graph size (the AggIndex build reads it on the
// transposed index too).
func DegreeSkewHistogramFromIndptr(indptr []int64) [32]int {
	var h [32]int
	for v := 0; v+1 < len(indptr); v++ {
		h[bits.Len(uint(indptr[v+1]-indptr[v]))]++
	}
	return h
}
