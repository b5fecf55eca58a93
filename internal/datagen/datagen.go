// Package datagen generates the seeded synthetic datasets that stand in for
// the paper's Reddit, ogbn-products, Yelp and ogbn-papers100M graphs.
//
// Each dataset is a stochastic-block-model community graph with Chung-Lu
// style power-law degree skew, class-correlated node features, and
// train/val/test splits matching the paper's Table 3 ratios. Community
// structure gives METIS-style partitioners something real to find, the
// degree skew reproduces the boundary-node imbalance of Figure 3, and the
// noisy features make neighbor aggregation genuinely necessary for accuracy
// (so dropping all boundary nodes, p=0, measurably hurts — Table 4's shape).
//
// Everything is deterministic given Config.Seed.
package datagen

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Dataset bundles a graph with features, labels and split masks.
type Dataset struct {
	Name        string
	G           *graph.Graph
	Features    *tensor.Matrix // N × FeatureDim
	Labels      []int32        // single-label targets (nil when MultiLabel)
	LabelMatrix *tensor.Matrix // N × NumClasses 0/1 targets (multi-label only)
	NumClasses  int
	MultiLabel  bool
	TrainMask   []bool
	ValMask     []bool
	TestMask    []bool
}

// FeatureDim returns the node feature dimensionality.
func (d *Dataset) FeatureDim() int { return d.Features.Cols }

// CheckTrainLabels rejects a single-label dataset with a training node whose
// label is outside [0, NumClasses): the softmax loss indexes a row of logits
// by it. The error names the first such node and its label. A multi-label
// dataset trains on LabelMatrix and passes.
func (d *Dataset) CheckTrainLabels() error {
	if d.MultiLabel {
		return nil
	}
	if len(d.Labels) < len(d.TrainMask) {
		return fmt.Errorf("datagen: %s has %d labels for %d training-mask entries", d.Name, len(d.Labels), len(d.TrainMask))
	}
	for v, train := range d.TrainMask {
		if y := d.Labels[v]; train && (y < 0 || int(y) >= d.NumClasses) {
			return fmt.Errorf("datagen: %s: training node %d has label %d, outside [0,%d)", d.Name, v, y, d.NumClasses)
		}
	}
	return nil
}

// CountMask returns the number of true entries in mask.
func CountMask(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// Config describes a synthetic community graph.
type Config struct {
	Name          string
	Nodes         int
	Communities   int     // ground-truth blocks; one class per community
	AvgDegree     float64 // target average degree
	IntraFrac     float64 // fraction of edges with both endpoints in one community
	DegreeSkew    float64 // Pareto shape for Chung-Lu weights; 0 disables skew
	FeatureDim    int
	FeatureSignal float64 // centroid magnitude; lower = aggregation matters more
	FeatureNoise  float64 // per-node gaussian noise std
	MultiLabel    bool
	LabelsPerNode int // multi-label: average active labels per node
	TrainFrac     float64
	ValFrac       float64
	Seed          uint64
	StructureOnly bool // skip features/labels (papers100M analogue)
}

// Validate checks config sanity.
func (c *Config) Validate() error {
	if c.Nodes <= 0 || c.Communities <= 0 || c.Communities > c.Nodes {
		return fmt.Errorf("datagen: bad nodes=%d communities=%d", c.Nodes, c.Communities)
	}
	if c.TrainFrac < 0 || c.ValFrac < 0 || c.TrainFrac+c.ValFrac > 1 {
		return fmt.Errorf("datagen: bad split %v/%v", c.TrainFrac, c.ValFrac)
	}
	if c.IntraFrac < 0 || c.IntraFrac > 1 {
		return fmt.Errorf("datagen: bad intra fraction %v", c.IntraFrac)
	}
	return nil
}

// Generate builds the dataset described by c.
func Generate(c Config) (*Dataset, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(c.Seed)

	// Community assignment: contiguous equal-size blocks shuffled so node ids
	// carry no information.
	comm := make([]int32, c.Nodes)
	perm := rng.Perm(c.Nodes)
	for i, v := range perm {
		comm[v] = int32(i % c.Communities)
	}

	// Chung-Lu weights: w_v = (1-u)^(-1/skew) gives a Pareto tail, producing
	// hub nodes whose placement drives boundary-node imbalance.
	weights := make([]float64, c.Nodes)
	for v := range weights {
		if c.DegreeSkew > 0 {
			u := rng.Float64()
			weights[v] = math.Pow(1-u, -1/c.DegreeSkew)
			if weights[v] > float64(c.Nodes)/10 { // clip extreme hubs
				weights[v] = float64(c.Nodes) / 10
			}
		} else {
			weights[v] = 1
		}
	}

	g := buildEdges(c, comm, weights, rng)

	ds := &Dataset{
		Name:       c.Name,
		G:          g,
		NumClasses: c.Communities,
		MultiLabel: c.MultiLabel,
	}
	ds.TrainMask, ds.ValMask, ds.TestMask = splitMasks(c.Nodes, c.TrainFrac, c.ValFrac, rng)

	if c.StructureOnly {
		ds.Features = tensor.New(0, 0)
		return ds, nil
	}

	ds.Features = makeFeatures(c, comm, rng)
	if c.MultiLabel {
		ds.LabelMatrix = makeMultiLabels(c, comm, rng)
	} else {
		ds.Labels = comm
	}
	return ds, nil
}

// buildEdges samples M = Nodes*AvgDegree/2 undirected edges. With probability
// IntraFrac both endpoints come from the same community (weighted within the
// block), otherwise both are drawn from the global weight distribution.
func buildEdges(c Config, comm []int32, weights []float64, rng *tensor.RNG) *graph.Graph {
	// Per-community member lists and weight prefix sums for O(log n) draws.
	members := make([][]int32, c.Communities)
	for v, cm := range comm {
		members[cm] = append(members[cm], int32(v))
	}
	prefix := make([][]float64, c.Communities)
	for cm, ms := range members {
		p := make([]float64, len(ms)+1)
		for i, v := range ms {
			p[i+1] = p[i] + weights[v]
		}
		prefix[cm] = p
	}
	globalPrefix := make([]float64, c.Nodes+1)
	for v := 0; v < c.Nodes; v++ {
		globalPrefix[v+1] = globalPrefix[v] + weights[v]
	}
	commPrefix := make([]float64, c.Communities+1)
	for cm := 0; cm < c.Communities; cm++ {
		commPrefix[cm+1] = commPrefix[cm] + prefix[cm][len(prefix[cm])-1]
	}

	sampleFrom := func(p []float64, ids []int32) int32 {
		total := p[len(p)-1]
		x := rng.Float64() * total
		i := sort.SearchFloat64s(p, x)
		if i > 0 {
			i--
		}
		if i >= len(ids) {
			i = len(ids) - 1
		}
		return ids[i]
	}
	globalIDs := make([]int32, c.Nodes)
	for v := range globalIDs {
		globalIDs[v] = int32(v)
	}
	commIDs := make([]int32, c.Communities)
	for cm := range commIDs {
		commIDs[cm] = int32(cm)
	}

	b := graph.NewBuilder(c.Nodes)
	m := int(float64(c.Nodes) * c.AvgDegree / 2)
	for e := 0; e < m; e++ {
		if rng.Float64() < c.IntraFrac {
			cm := sampleFrom(commPrefix, commIDs)
			u := sampleFrom(prefix[cm], members[cm])
			v := sampleFrom(prefix[cm], members[cm])
			if u != v {
				b.AddEdge(u, v)
			}
		} else {
			u := sampleFrom(globalPrefix, globalIDs)
			v := sampleFrom(globalPrefix, globalIDs)
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// makeFeatures draws a gaussian centroid per community and emits
// x_v = signal*centroid[comm(v)] + noise*N(0,I).
func makeFeatures(c Config, comm []int32, rng *tensor.RNG) *tensor.Matrix {
	centroids := tensor.New(c.Communities, c.FeatureDim)
	tensor.GaussianInit(centroids, 1.0, rng)
	feats := tensor.New(c.Nodes, c.FeatureDim)
	for v := 0; v < c.Nodes; v++ {
		mu := centroids.Row(int(comm[v]))
		row := feats.Row(v)
		for j := range row {
			row[j] = float32(c.FeatureSignal)*mu[j] + float32(c.FeatureNoise*rng.NormFloat64())
		}
	}
	return feats
}

// makeMultiLabels builds a 0/1 label matrix: each community has a base
// pattern of active labels; per node, each base bit is kept with prob 0.9
// and each inactive bit switched on with a small probability tuned so the
// expected number of active labels per node is LabelsPerNode.
func makeMultiLabels(c Config, comm []int32, rng *tensor.RNG) *tensor.Matrix {
	k := c.LabelsPerNode
	if k <= 0 {
		k = 3
	}
	base := make([][]bool, c.Communities)
	for cm := range base {
		pattern := make([]bool, c.Communities)
		// Community cm always has its own label plus k-1 deterministic others.
		pattern[cm] = true
		for i := 1; i < k; i++ {
			pattern[(cm+i*7+1)%c.Communities] = true
		}
		base[cm] = pattern
	}
	flipOn := 0.3 / float64(c.Communities)
	lm := tensor.New(c.Nodes, c.Communities)
	for v := 0; v < c.Nodes; v++ {
		pattern := base[comm[v]]
		row := lm.Row(v)
		for j := range row {
			active := pattern[j]
			if active && rng.Float64() < 0.1 {
				active = false
			} else if !active && rng.Float64() < flipOn {
				active = true
			}
			if active {
				row[j] = 1
			}
		}
	}
	return lm
}

func splitMasks(n int, trainFrac, valFrac float64, rng *tensor.RNG) (train, val, test []bool) {
	train = make([]bool, n)
	val = make([]bool, n)
	test = make([]bool, n)
	perm := rng.Perm(n)
	nTrain := int(float64(n) * trainFrac)
	nVal := int(float64(n) * valFrac)
	for i, v := range perm {
		switch {
		case i < nTrain:
			train[v] = true
		case i < nTrain+nVal:
			val[v] = true
		default:
			test[v] = true
		}
	}
	return train, val, test
}
