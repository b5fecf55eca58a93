// Package core implements the paper's primary contribution: partition-
// parallel full-graph GCN training with random Boundary Node Sampling
// (BNS-GCN, Algorithm 1), together with the boundary-node analysis of
// Section 3.1 (communication volume Eq. 3, memory cost Eq. 4), a
// single-process reference trainer, and the empirical variance measurement
// of Section 3.3 / Appendix A.
package core

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Topology captures everything derived from a k-way partition assignment
// that partition-parallel training needs: inner node sets, boundary node
// sets (the remote nodes each partition must receive), and the pairwise
// send/receive alignment between partitions.
type Topology struct {
	K     int
	G     *graph.Graph
	Parts []int32 // global node -> part id

	Inner    [][]int32 // Inner[i]: global ids of partition i's inner nodes (sorted)
	Boundary [][]int32 // Boundary[i]: global ids of remote nodes partition i needs (sorted)

	// innerIndex[v] = local inner index of global node v within its owner.
	innerIndex []int32

	// Recv[i][j]: local halo indices (offsets into Boundary[i], i.e. local id
	// minus len(Inner[i])) of partition i's boundary nodes owned by j.
	// Send[j][i]: local inner indices in j of those same nodes, aligned
	// elementwise with Recv[i][j]. Send[j][i][x] is the inner node whose
	// features fill halo slot Recv[i][j][x].
	Recv [][][]int32
	Send [][][]int32
}

// BuildTopology validates parts and computes the partition topology.
func BuildTopology(g *graph.Graph, parts []int32, k int) (*Topology, error) {
	if len(parts) != g.N {
		return nil, fmt.Errorf("core: parts length %d != %d nodes", len(parts), g.N)
	}
	for v, p := range parts {
		if p < 0 || int(p) >= k {
			return nil, fmt.Errorf("core: node %d in invalid part %d", v, p)
		}
	}
	t := &Topology{K: k, G: g, Parts: parts}
	t.Inner = make([][]int32, k)
	for v := int32(0); v < int32(g.N); v++ {
		p := parts[v]
		t.Inner[p] = append(t.Inner[p], v)
	}
	t.innerIndex = make([]int32, g.N)
	for _, inner := range t.Inner {
		for idx, v := range inner {
			t.innerIndex[v] = int32(idx)
		}
	}

	// Boundary sets: for partition i, every remote neighbor of an inner node.
	t.Boundary = make([][]int32, k)
	seen := make(map[int32]bool)
	for i := 0; i < k; i++ {
		clear(seen)
		for _, v := range t.Inner[i] {
			for _, u := range g.Neighbors(v) {
				if parts[u] != int32(i) && !seen[u] {
					seen[u] = true
					t.Boundary[i] = append(t.Boundary[i], u)
				}
			}
		}
		sort.Slice(t.Boundary[i], func(a, b int) bool { return t.Boundary[i][a] < t.Boundary[i][b] })
	}

	// Pairwise aligned send/recv lists.
	t.Recv = make([][][]int32, k)
	t.Send = make([][][]int32, k)
	for i := 0; i < k; i++ {
		t.Recv[i] = make([][]int32, k)
		t.Send[i] = make([][]int32, k)
	}
	for i := 0; i < k; i++ {
		for haloIdx, v := range t.Boundary[i] {
			j := parts[v]
			t.Recv[i][j] = append(t.Recv[i][j], int32(haloIdx))
			t.Send[j][i] = append(t.Send[j][i], t.innerIndex[v])
		}
	}
	return t, nil
}

// InnerIndex returns the local inner index of global node v in its owner
// partition.
func (t *Topology) InnerIndex(v int32) int32 { return t.innerIndex[v] }

// CommVolume returns the paper's Eq. 3: the total number of boundary nodes
// summed over partitions, which equals the number of node features sent per
// layer per direction.
func (t *Topology) CommVolume() int64 {
	var vol int64
	for _, b := range t.Boundary {
		vol += int64(len(b))
	}
	return vol
}

// BoundaryRatios returns |Boundary[i]| / |Inner[i]| per partition — the
// quantity whose skew Table 1 and Figure 3 report.
func (t *Topology) BoundaryRatios() []float64 {
	out := make([]float64, t.K)
	for i := 0; i < t.K; i++ {
		if len(t.Inner[i]) > 0 {
			out[i] = float64(len(t.Boundary[i])) / float64(len(t.Inner[i]))
		}
	}
	return out
}

// MemoryCost returns the paper's Eq. 4 for one partition in bytes: each
// GraphSAGE layer with input dimension d stores 3·nIn + nBd feature rows
// (input features of inner+boundary nodes, aggregated features, and the
// concat half kept for backward), 4 bytes per float32.
//
// It is the paper's accounting, which the partitioner and the cost model
// rank partitions by, not this runtime's footprint. Per SAGE layer of input
// width d the epoch engine holds
//
//   - with a row per inner node and per *sampled* boundary node, d wide: the
//     layer input x and, for every layer but the first (whose input is data
//     and gets no gradient), the input gradient dH. Dropout writes x in
//     place and keeps one bit per element, 1/32 of x;
//   - with a row per inner node, d wide: the aggregated half z and, for the
//     layers above the first, its gradient dz. The folded gradient handed to
//     the layer below is no buffer of its own: the fold adds the peers' rows
//     into dH's inner rows and hands down a view of them;
//   - with a row per inner node, as wide as the layer's output: the output
//     (the activation is applied in place, so it is also the
//     pre-activation) and the output gradient (differentiated in place).
//
// That is 4·nIn + 2·nBd input-wide rows (2·nIn + nBd for the first layer)
// and 2·nIn output-wide ones where Eq. 4 counts 3·nIn + nBd. (Attention also
// keeps Wh and its gradient, a row per inner and sampled boundary node and
// as wide as the output.) The halo payloads in flight — a frame per peer
// received and sent, which the transport lends and pools — and the
// partition's static arrays come on top. Every buffer listed is the rank's
// — its epoch workspace, or the pass state (Pass) its trainer owns — and
// none the Model's: a model kept after its trainer holds its weights and
// gradients only. Measured on a boundary-heavy partition, the trainers' heap
// is 2.25–2.26× Eq. 4 at p=1 and 2.22× at p=0.1 over the channel cluster,
// and 2.59–2.80× and 2.40–2.50× over loopback TCP, whose frame pools hold
// more (GOMAXPROCS 1, 2 and 4); TestTrainerMemoryScalesWithP (…OverTCP)
// gates both and bnsbench -exp fig6 prints the channel figures. With nBd the
// boundary sampled at rate p both shrink with p, the runtime's boundary term
// weighing twice Eq. 4's against a larger inner term, so the measured
// reduction lands within a few points of Eq. 4's either side.
func MemoryCost(nIn, nBd int, layerInputDims []int) int64 {
	var floats int64
	for _, d := range layerInputDims {
		floats += int64(3*nIn+nBd) * int64(d)
	}
	return floats * 4
}

// MemoryCosts returns Eq. 4 per partition for the given layer input
// dimensions, with the boundary set scaled by sampling rate p (the expected
// sampled boundary size under BNS).
func (t *Topology) MemoryCosts(layerInputDims []int, p float64) []int64 {
	out := make([]int64, t.K)
	for i := 0; i < t.K; i++ {
		nBd := int(float64(len(t.Boundary[i])) * p)
		out[i] = MemoryCost(len(t.Inner[i]), nBd, layerInputDims)
	}
	return out
}
