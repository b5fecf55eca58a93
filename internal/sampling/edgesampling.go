package sampling

import (
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

	// LastCommVolume is the boundary-node communication volume implied by
	// the surviving cross-partition edges of the last sampled epoch graph.
	LastCommVolume int64
	// LastDroppedEdges counts undirected edges dropped in the last epoch.
	LastDroppedEdges int64
}

// NewEdgeDropSampler builds the sampler over the topology's graph and
// partition; trainMask (one entry per node) marks the loss rows.
func NewEdgeDropSampler(topo *core.Topology, trainMask []bool, mode EdgeDropMode, keepProb float64, seed uint64) *EdgeDropSampler {
	return &EdgeDropSampler{
		Topo: topo, Mode: mode, KeepProb: keepProb, rng: tensor.NewRNG(seed),
		batch: Batch{Nodes: allNodes(topo.G), TargetMask: trainMask},
	}
}

// Name implements Sampler.
func (s *EdgeDropSampler) Name() string { return s.Mode.String() }

// BatchesPerEpoch implements Sampler: the whole graph is one batch.
func (s *EdgeDropSampler) BatchesPerEpoch() int { return 1 }

// Sample implements Sampler: it draws the epoch's edge-sampled graph and
// records the implied partition-parallel communication volume.
func (s *EdgeDropSampler) Sample() *Batch {
	g := s.Topo.G
	parts := s.Topo.Parts
	b := graph.NewBuilder(g.N)
	var dropped int64
	// needed[i] tracks which remote nodes partition i still needs.
	needed := make([]map[int32]bool, s.Topo.K)
	for i := range needed {
		needed[i] = make(map[int32]bool)
	}
	for v := int32(0); v < int32(g.N); v++ {
		for _, u := range g.Neighbors(v) {
			if u <= v {
				continue
			}
			cross := parts[v] != parts[u]
			droppable := s.Mode == DropEdgeGlobal || cross
			if droppable && s.rng.Float64() >= s.KeepProb {
				dropped++
				continue
			}
			b.AddEdge(v, u)
			if cross {
				needed[parts[v]][u] = true
				needed[parts[u]][v] = true
			}
		}
	}
	s.LastDroppedEdges = dropped
	s.LastCommVolume = 0
	for _, m := range needed {
		s.LastCommVolume += int64(len(m))
	}
	s.batch.G = b.Build()
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
