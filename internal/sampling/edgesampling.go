package sampling

import (
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// EdgeDropMode selects which edges an EdgeDropSampler may drop.
type EdgeDropMode int

const (
	// DropEdgeGlobal drops any edge uniformly (DropEdge, Rong et al., 2019).
	DropEdgeGlobal EdgeDropMode = iota
	// DropEdgeBoundary drops only cross-partition edges (the paper's BES
	// ablation, Section 4.3 / Table 9).
	DropEdgeBoundary
)

func (m EdgeDropMode) String() string {
	if m == DropEdgeBoundary {
		return "BES"
	}
	return "DropEdge"
}

// EdgeDropSampler drives full-graph training on a per-epoch edge-sampled
// graph, the Table 9 ablation: each epoch is one batch holding every node,
// the graph with this epoch's dropped edges struck out, and the train mask
// as its targets. It also reports the partition-parallel communication
// volume each epoch's surviving edges would require: a boundary node must
// still be communicated if at least one of its cross-partition edges
// survives — the paper's core argument for why edge sampling cannot match
// boundary-node sampling.
type EdgeDropSampler struct {
	Topo *core.Topology
	Mode EdgeDropMode
	// KeepProb is the survival probability of a droppable edge.
	KeepProb float64

	rng   *tensor.RNG
	batch Batch

	// The epoch graph is the topology's canonical CSR filtered in place:
	// rev[e] is the arc opposite arc e, kept[e] whether arc e survives this
	// epoch, and g, over indptr and indices, the surviving arcs. seen[i] is
	// the last node counted as needed by partition i.
	rev     []int64
	kept    []bool
	indptr  []int64
	indices []int32
	g       graph.Graph
	seen    []int32

	// LastCommVolume is the boundary-node communication volume implied by
	// the surviving cross-partition edges of the last sampled epoch graph.
	LastCommVolume int64
	// LastDroppedEdges counts undirected edges dropped in the last epoch.
	LastDroppedEdges int64
}

// NewEdgeDropSampler builds the sampler over the topology's graph and
// partition; trainMask (one entry per node) marks the loss rows.
func NewEdgeDropSampler(topo *core.Topology, trainMask []bool, mode EdgeDropMode, keepProb float64, seed uint64) *EdgeDropSampler {
	g := topo.G
	s := &EdgeDropSampler{
		Topo: topo, Mode: mode, KeepProb: keepProb, rng: tensor.NewRNG(seed),
		batch:   Batch{Nodes: allNodes(g), TargetMask: trainMask},
		rev:     make([]int64, len(g.Indices)),
		kept:    make([]bool, len(g.Indices)),
		indptr:  make([]int64, g.N+1),
		indices: make([]int32, len(g.Indices)),
		seen:    make([]int32, topo.K),
	}
	// Rows are sorted, so the arcs into u from below arrive in u's row order
	// as v ascends: a cursor per row pairs each arc with its reverse.
	next := slices.Clone(g.Indptr[:g.N])
	for v := int32(0); v < int32(g.N); v++ {
		for e := g.Indptr[v]; e < g.Indptr[v+1]; e++ {
			if u := g.Indices[e]; u > v {
				s.rev[e], s.rev[next[u]] = next[u], e
				next[u]++
			}
		}
	}
	return s
}

// Name implements Sampler.
func (s *EdgeDropSampler) Name() string { return s.Mode.String() }

// BatchesPerEpoch implements Sampler: the whole graph is one batch.
func (s *EdgeDropSampler) BatchesPerEpoch() int { return 1 }

// Sample implements Sampler: it draws the epoch's edge-sampled graph and
// records the implied partition-parallel communication volume. Each
// undirected edge gets one keep decision, drawn with v ascending and, within
// v's row, u > v ascending; a row is complete once v is reached, since its
// arcs to lower nodes were decided with them. The graph is valid until the
// next Sample.
func (s *EdgeDropSampler) Sample() *Batch {
	g, parts := s.Topo.G, s.Topo.Parts
	for i := range s.seen {
		s.seen[i] = -1
	}
	var dropped, volume int64
	pos := int64(0)
	for v := int32(0); v < int32(g.N); v++ {
		s.indptr[v] = pos
		for e := g.Indptr[v]; e < g.Indptr[v+1]; e++ {
			u := g.Indices[e]
			if u > v {
				droppable := s.Mode == DropEdgeGlobal || parts[v] != parts[u]
				s.kept[e] = !droppable || s.rng.Float64() < s.KeepProb
				s.kept[s.rev[e]] = s.kept[e]
				if !s.kept[e] {
					dropped++
				}
			}
			if !s.kept[e] {
				continue
			}
			s.indices[pos] = u
			pos++
			// v is communicated once to every other partition that keeps an
			// edge to it.
			if i := parts[u]; i != parts[v] && s.seen[i] != v {
				s.seen[i] = v
				volume++
			}
		}
	}
	s.indptr[g.N] = pos
	s.g = graph.Graph{N: g.N, Indptr: s.indptr, Indices: s.indices[:pos]}
	s.LastDroppedEdges, s.LastCommVolume = dropped, volume
	s.batch.G = &s.g
	return &s.batch
}

// BNSDroppedEdges returns the expected number of undirected cross-partition
// edges BNS at rate p drops, used to calibrate Table 9's equal-drop
// protocol: a cross edge (v,u) is unusable in the direction v←u when u is
// not sampled by v's partition, and the paper counts each remaining
// undirected edge once, so an edge is "dropped" when neither direction
// survives: probability (1−p)² — approximated here by counting each
// direction with probability (1−p) and halving, matching the paper's
// equal-edge-budget protocol at small p.
func BNSDroppedEdges(topo *core.Topology, p float64) int64 {
	var crossDirected int64
	for i := 0; i < topo.K; i++ {
		for _, v := range topo.Inner[i] {
			for _, u := range topo.G.Neighbors(v) {
				if topo.Parts[u] != int32(i) {
					crossDirected++
				}
			}
		}
	}
	return int64(float64(crossDirected) / 2 * (1 - p))
}
