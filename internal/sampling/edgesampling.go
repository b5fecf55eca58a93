package sampling

import (
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// EdgeDropMode selects which edges an EdgeDropTrainer may drop.
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

// EdgeDropTrainer performs full-graph training on a per-epoch edge-sampled
// graph, used for the Table 9 ablation. It also reports the partition-
// parallel communication volume each epoch's surviving edges would require:
// a boundary node must still be communicated if at least one of its
// cross-partition edges survives — the paper's core argument for why edge
// sampling cannot match boundary-node sampling.
type EdgeDropTrainer struct {
	DS   *datagen.Dataset
	Topo *core.Topology
	Mode EdgeDropMode
	// KeepProb is the survival probability of a droppable edge.
	KeepProb float64

	Model *core.Model
	Opt   *optim.Adam
	rng   *tensor.RNG

	SampleTime  time.Duration
	ComputeTime time.Duration
	lay         core.Layout // the epoch graph's layout
	eval        fullEval

	// LastCommVolume is the boundary-node communication volume implied by
	// the surviving cross-partition edges of the last sampled epoch graph.
	LastCommVolume int64
	// LastDroppedEdges counts undirected edges dropped in the last epoch.
	LastDroppedEdges int64
}

// NewEdgeDropTrainer builds the trainer.
func NewEdgeDropTrainer(ds *datagen.Dataset, topo *core.Topology, cfg core.ModelConfig, mode EdgeDropMode, keepProb float64, seed uint64) (*EdgeDropTrainer, error) {
	model, err := core.NewModel(cfg, ds.FeatureDim(), ds.NumClasses)
	if err != nil {
		return nil, err
	}
	return &EdgeDropTrainer{
		DS: ds, Topo: topo, Mode: mode, KeepProb: keepProb,
		Model: model, Opt: optim.NewAdam(cfg.LR), rng: tensor.NewRNG(seed),
	}, nil
}

// sampleGraph draws the epoch's edge-sampled graph and records the implied
// partition-parallel communication volume.
func (t *EdgeDropTrainer) sampleGraph() *graph.Graph {
	g := t.DS.G
	parts := t.Topo.Parts
	b := graph.NewBuilder(g.N)
	var dropped int64
	// needed[i] tracks which remote nodes partition i still needs.
	needed := make([]map[int32]bool, t.Topo.K)
	for i := range needed {
		needed[i] = make(map[int32]bool)
	}
	for v := int32(0); v < int32(g.N); v++ {
		for _, u := range g.Neighbors(v) {
			if u <= v {
				continue
			}
			cross := parts[v] != parts[u]
			droppable := t.Mode == DropEdgeGlobal || cross
			if droppable && t.rng.Float64() >= t.KeepProb {
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
	t.LastDroppedEdges = dropped
	t.LastCommVolume = 0
	for _, m := range needed {
		t.LastCommVolume += int64(len(m))
	}
	return b.Build()
}

// TrainEpoch samples an edge-dropped graph and runs one full-graph training
// step on it.
func (t *EdgeDropTrainer) TrainEpoch() float64 {
	ss := time.Now()
	g := t.sampleGraph()
	t.SampleTime += time.Since(ss)

	cs := time.Now()
	defer func() { t.ComputeTime += time.Since(cs) }()

	h := t.Model.Forward(t.lay.Build(g), t.DS.Features, true)
	loss, d := core.Loss(t.DS.MultiLabel, h, t.DS.Labels, t.DS.LabelMatrix, t.DS.TrainMask, 0)
	t.Model.ZeroGrad()
	t.Model.Backward(d)
	t.Opt.Step(t.Model.Params(), t.Model.Grads())
	return loss
}

// Evaluate scores the model with exact full-graph inference.
func (t *EdgeDropTrainer) Evaluate(mask []bool) float64 {
	return t.eval.score(t.DS, t.Model, mask)
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
