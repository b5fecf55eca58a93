// Package sampling is the single-machine minibatch half of the repo's one
// sampler vocabulary: the sampling-based GCN training baselines the paper
// compares against (Tables 4, 5, 9, 11, 12) — GraphSAGE neighbor sampling,
// FastGCN and LADIES layer sampling, ClusterGCN and GraphSAINT subgraph
// sampling — plus the edge-sampling ablations DropEdge and Boundary Edge
// Sampling (BES), whose one batch per epoch is the whole edge-sampled graph.
// The partition-parallel half, the BNS and LADIES boundary-slot samplers
// hosted on the engine, is core.Strategy, a per-slot keep probability the
// engine draws from; GraphSAINT lives only here, as the paper measures it.
//
// All samplers share the Batch abstraction: a set of global nodes, a
// subgraph over them, and a target mask marking the rows where loss
// is computed. A MinibatchTrainer runs any such sampler through the same
// core.Model the engine trains, so timing and accuracy comparisons are
// apples-to-apples. What the samplers have in common exists once: epochOrder
// is the per-epoch shuffle of the train nodes with its cursor, degreePrefix
// the degree-proportional draw; a sampler is its constructor, its name and
// the body of Sample that is its algorithm.
package sampling

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Batch is one sampled training subgraph.
type Batch struct {
	Nodes      []int32      // local row -> global node id
	G          *graph.Graph // induced subgraph over the local space
	TargetMask []bool       // local rows contributing to the loss
}

// Sampler produces training batches. Implementations must be deterministic
// given the RNG passed at construction.
type Sampler interface {
	Name() string
	// Sample returns the next batch. Implementations may return fewer target
	// nodes near the end of an epoch.
	Sample() *Batch
	// BatchesPerEpoch is how many batches constitute one epoch.
	BatchesPerEpoch() int
}

// trainNodeList extracts the global ids with mask set.
func trainNodeList(mask []bool) []int32 {
	var out []int32
	for v, b := range mask {
		if b {
			out = append(out, int32(v))
		}
	}
	return out
}

// allNodes lists every node id of g.
func allNodes(g *graph.Graph) []int32 {
	nodes := make([]int32, g.N)
	for v := range nodes {
		nodes[v] = int32(v)
	}
	return nodes
}

// induceBatch builds a Batch from a target set and an extra context set.
func induceBatch(g *graph.Graph, targets []int32, context map[int32]bool) *Batch {
	nodes := make([]int32, 0, len(targets)+len(context))
	inTargets := make(map[int32]bool, len(targets))
	for _, v := range targets {
		nodes = append(nodes, v)
		inTargets[v] = true
	}
	extra := make([]int32, 0, len(context))
	for v := range context {
		if !inTargets[v] {
			extra = append(extra, v)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	nodes = append(nodes, extra...)
	sub := graph.InducedSubgraph(g, nodes)
	mask := make([]bool, len(nodes))
	for i := range targets {
		mask[i] = true
	}
	return &Batch{Nodes: nodes, G: sub, TargetMask: mask}
}

// epochOrder walks the train nodes in a fresh random order every epoch, one
// batch at a time.
type epochOrder struct {
	Train  []int32
	Batch  int
	rng    *tensor.RNG
	cursor int
	order  []int32
}

func newEpochOrder(trainMask []bool, batch int, seed uint64) epochOrder {
	o := epochOrder{Train: trainNodeList(trainMask), Batch: batch, rng: tensor.NewRNG(seed)}
	o.reshuffle()
	return o
}

func (o *epochOrder) reshuffle() {
	perm := o.rng.Perm(len(o.Train))
	o.order = make([]int32, len(o.Train))
	for i, p := range perm {
		o.order[i] = o.Train[p]
	}
	o.cursor = 0
}

// next returns the next batch of targets, reshuffling first when the epoch is
// spent; the last batch of an epoch may be short.
func (o *epochOrder) next() []int32 {
	if o.cursor >= len(o.order) {
		o.reshuffle()
	}
	end := min(o.cursor+o.Batch, len(o.order))
	targets := o.order[o.cursor:end]
	o.cursor = end
	return targets
}

// BatchesPerEpoch implements Sampler.
func (o *epochOrder) BatchesPerEpoch() int {
	return (len(o.Train) + o.Batch - 1) / o.Batch
}

// degreePrefix draws from a node list with probability proportional to
// degree+1 (the importance distribution FastGCN, LADIES and GraphSAINT's node
// sampler share), by binary search over the cumulative weights.
type degreePrefix []float64

func newDegreePrefix(g *graph.Graph, nodes []int32) degreePrefix {
	prefix := make(degreePrefix, len(nodes)+1)
	for i, v := range nodes {
		prefix[i+1] = prefix[i] + float64(g.Degree(v)+1)
	}
	return prefix
}

// draw returns an index into the node list, consuming one Float64.
func (p degreePrefix) draw(rng *tensor.RNG) int {
	x := rng.Float64() * p[len(p)-1]
	i := sort.SearchFloat64s(p, x)
	if i > 0 {
		i--
	}
	return min(i, len(p)-2)
}

// NeighborSampler is GraphSAGE-style node sampling (Hamilton et al., 2017):
// a batch of train nodes is expanded layer by layer, keeping at most Fanout
// random neighbors per node per hop.
type NeighborSampler struct {
	epochOrder
	G      *graph.Graph
	Fanout int
	Hops   int
}

// NewNeighborSampler builds the sampler over the train mask.
func NewNeighborSampler(g *graph.Graph, trainMask []bool, batch, fanout, hops int, seed uint64) *NeighborSampler {
	return &NeighborSampler{epochOrder: newEpochOrder(trainMask, batch, seed), G: g, Fanout: fanout, Hops: hops}
}

// Name implements Sampler.
func (s *NeighborSampler) Name() string { return "NeighborSampling" }

// Sample implements Sampler.
func (s *NeighborSampler) Sample() *Batch {
	targets := s.next()
	context := make(map[int32]bool)
	frontier := targets
	for hop := 0; hop < s.Hops; hop++ {
		var next []int32
		for _, v := range frontier {
			nbrs := s.G.Neighbors(v)
			if len(nbrs) <= s.Fanout {
				for _, u := range nbrs {
					if !context[u] {
						context[u] = true
						next = append(next, u)
					}
				}
				continue
			}
			for i := 0; i < s.Fanout; i++ {
				u := nbrs[s.rng.Intn(len(nbrs))]
				if !context[u] {
					context[u] = true
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return induceBatch(s.G, targets, context)
}

// FastGCNSampler is layer sampling with a global, degree-proportional
// proposal (Chen et al., 2018a): each batch pairs seed train nodes with
// LayerSize importance-sampled context nodes drawn from the whole graph.
type FastGCNSampler struct {
	epochOrder
	G         *graph.Graph
	LayerSize int
	prefix    degreePrefix // over every node of G
}

// NewFastGCNSampler builds the sampler.
func NewFastGCNSampler(g *graph.Graph, trainMask []bool, batch, layerSize int, seed uint64) *FastGCNSampler {
	return &FastGCNSampler{
		epochOrder: newEpochOrder(trainMask, batch, seed), G: g,
		LayerSize: layerSize, prefix: newDegreePrefix(g, allNodes(g)),
	}
}

// Name implements Sampler.
func (s *FastGCNSampler) Name() string { return "FastGCN" }

// Sample implements Sampler.
func (s *FastGCNSampler) Sample() *Batch {
	targets := s.next()
	context := make(map[int32]bool)
	for i := 0; i < s.LayerSize; i++ {
		context[int32(s.prefix.draw(s.rng))] = true
	}
	return induceBatch(s.G, targets, context)
}

// LADIESSampler is layer-dependent importance sampling (Zou et al., 2019):
// context nodes are drawn only from the neighborhood of the current batch,
// degree-proportionally, which keeps the sampled layers connected.
type LADIESSampler struct {
	epochOrder
	G         *graph.Graph
	LayerSize int
	Hops      int
}

// NewLADIESSampler builds the sampler.
func NewLADIESSampler(g *graph.Graph, trainMask []bool, batch, layerSize, hops int, seed uint64) *LADIESSampler {
	return &LADIESSampler{epochOrder: newEpochOrder(trainMask, batch, seed), G: g, LayerSize: layerSize, Hops: hops}
}

// Name implements Sampler.
func (s *LADIESSampler) Name() string { return "LADIES" }

// Sample implements Sampler.
func (s *LADIESSampler) Sample() *Batch {
	targets := s.next()
	context := make(map[int32]bool)
	current := targets
	for hop := 0; hop < s.Hops; hop++ {
		// Candidate pool: union of neighbors of the current layer.
		var pool []int32
		seen := make(map[int32]bool)
		for _, v := range current {
			for _, u := range s.G.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					pool = append(pool, u)
				}
			}
		}
		if len(pool) == 0 {
			break
		}
		// Degree-proportional draw of LayerSize nodes from the pool.
		prefix := newDegreePrefix(s.G, pool)
		var next []int32
		for i := 0; i < s.LayerSize; i++ {
			u := pool[prefix.draw(s.rng)]
			if !context[u] {
				context[u] = true
				next = append(next, u)
			}
		}
		current = next
	}
	return induceBatch(s.G, targets, context)
}

// ClusterGCNSampler (Chiang et al., 2019) pre-partitions the graph into
// Clusters blocks and trains on the induced subgraph of a few randomly
// merged blocks per batch.
type ClusterGCNSampler struct {
	G             *graph.Graph
	trainMask     []bool
	members       [][]int32
	BlocksPerStep int
	rng           *tensor.RNG
}

// NewClusterGCNSampler builds the sampler from a precomputed clustering
// (parts as produced by any Partitioner over nclusters blocks).
func NewClusterGCNSampler(g *graph.Graph, trainMask []bool, parts []int32, nclusters, blocksPerStep int, seed uint64) (*ClusterGCNSampler, error) {
	if len(parts) != g.N {
		return nil, fmt.Errorf("sampling: parts length %d != %d", len(parts), g.N)
	}
	s := &ClusterGCNSampler{
		G: g, trainMask: trainMask, BlocksPerStep: blocksPerStep,
		members: make([][]int32, nclusters), rng: tensor.NewRNG(seed),
	}
	for v, p := range parts {
		if p < 0 || int(p) >= nclusters {
			return nil, fmt.Errorf("sampling: bad cluster id %d", p)
		}
		s.members[p] = append(s.members[p], int32(v))
	}
	return s, nil
}

// Name implements Sampler.
func (s *ClusterGCNSampler) Name() string { return "ClusterGCN" }

// BatchesPerEpoch implements Sampler.
func (s *ClusterGCNSampler) BatchesPerEpoch() int {
	n := len(s.members) / s.BlocksPerStep
	if n < 1 {
		n = 1
	}
	return n
}

// Sample implements Sampler.
func (s *ClusterGCNSampler) Sample() *Batch {
	var nodes []int32
	for i := 0; i < s.BlocksPerStep; i++ {
		c := s.rng.Intn(len(s.members))
		nodes = append(nodes, s.members[c]...)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	// Dedupe (blocks may repeat).
	uniq := nodes[:0]
	var prev int32 = -1
	for _, v := range nodes {
		if v != prev {
			uniq = append(uniq, v)
			prev = v
		}
	}
	sub := graph.InducedSubgraph(s.G, uniq)
	mask := make([]bool, len(uniq))
	for i, v := range uniq {
		mask[i] = s.trainMask[v]
	}
	return &Batch{Nodes: uniq, G: sub, TargetMask: mask}
}

// SAINTMode selects GraphSAINT's sampler variant.
type SAINTMode int

const (
	// SAINTNode samples nodes with probability proportional to degree.
	SAINTNode SAINTMode = iota
	// SAINTEdge samples edges uniformly and keeps their endpoints.
	SAINTEdge
	// SAINTWalk samples random-walk roots and keeps the visited nodes.
	SAINTWalk
)

func (m SAINTMode) String() string {
	switch m {
	case SAINTNode:
		return "GraphSAINT-node"
	case SAINTEdge:
		return "GraphSAINT-edge"
	case SAINTWalk:
		return "GraphSAINT-walk"
	}
	return "GraphSAINT-?"
}

// GraphSAINTSampler (Zeng et al., 2020) trains on induced subgraphs drawn by
// node, edge, or random-walk sampling.
type GraphSAINTSampler struct {
	G          *graph.Graph
	trainMask  []bool
	Mode       SAINTMode
	Budget     int // nodes (node/walk modes) or edges (edge mode)
	WalkLength int
	rng        *tensor.RNG
	prefix     degreePrefix // over every node of G (node mode's proposal)
}

// NewGraphSAINTSampler builds the sampler.
func NewGraphSAINTSampler(g *graph.Graph, trainMask []bool, mode SAINTMode, budget, walkLength int, seed uint64) *GraphSAINTSampler {
	return &GraphSAINTSampler{
		G: g, trainMask: trainMask, Mode: mode, Budget: budget,
		WalkLength: walkLength, rng: tensor.NewRNG(seed), prefix: newDegreePrefix(g, allNodes(g)),
	}
}

// Name implements Sampler.
func (s *GraphSAINTSampler) Name() string { return s.Mode.String() }

// BatchesPerEpoch implements Sampler.
func (s *GraphSAINTSampler) BatchesPerEpoch() int {
	n := s.G.N / s.Budget
	if n < 1 {
		n = 1
	}
	return n
}

// Sample implements Sampler.
func (s *GraphSAINTSampler) Sample() *Batch {
	picked := make(map[int32]bool)
	switch s.Mode {
	case SAINTNode:
		for len(picked) < s.Budget {
			picked[int32(s.prefix.draw(s.rng))] = true
		}
	case SAINTEdge:
		for i := 0; i < s.Budget; i++ {
			v := int32(s.rng.Intn(s.G.N))
			nbrs := s.G.Neighbors(v)
			if len(nbrs) == 0 {
				continue
			}
			u := nbrs[s.rng.Intn(len(nbrs))]
			picked[v] = true
			picked[u] = true
		}
	case SAINTWalk:
		roots := s.Budget / (s.WalkLength + 1)
		if roots < 1 {
			roots = 1
		}
		for r := 0; r < roots; r++ {
			v := int32(s.rng.Intn(s.G.N))
			picked[v] = true
			for step := 0; step < s.WalkLength; step++ {
				nbrs := s.G.Neighbors(v)
				if len(nbrs) == 0 {
					break
				}
				v = nbrs[s.rng.Intn(len(nbrs))]
				picked[v] = true
			}
		}
	}
	nodes := make([]int32, 0, len(picked))
	for v := range picked {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	sub := graph.InducedSubgraph(s.G, nodes)
	mask := make([]bool, len(nodes))
	for i, v := range nodes {
		mask[i] = s.trainMask[v]
	}
	return &Batch{Nodes: nodes, G: sub, TargetMask: mask}
}
