package sampling

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

func sameBatch(a, b *Batch) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] || a.TargetMask[i] != b.TargetMask[i] {
			return false
		}
	}
	return a.G.NumDirectedEdges() == b.G.NumDirectedEdges()
}

func TestSamplersDeterministic(t *testing.T) {
	ds := testDataset(t, 50)
	build := func(seed uint64) []Sampler {
		return []Sampler{
			NewNeighborSampler(ds.G, ds.TrainMask, 32, 5, 2, seed),
			NewFastGCNSampler(ds.G, ds.TrainMask, 32, 64, seed),
			NewLADIESSampler(ds.G, ds.TrainMask, 32, 64, 2, seed),
			NewGraphSAINTSampler(ds.G, ds.TrainMask, SAINTWalk, 100, 4, seed),
		}
	}
	as, bs := build(9), build(9)
	for i := range as {
		for step := 0; step < 3; step++ {
			if !sameBatch(as[i].Sample(), bs[i].Sample()) {
				t.Fatalf("%s: same seed diverged at step %d", as[i].Name(), step)
			}
		}
	}
	cs := build(10)
	diverged := false
	for i := range as {
		if !sameBatch(as[i].Sample(), cs[i].Sample()) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical batches for every sampler")
	}
}

func TestNeighborSamplerRespectsFanout(t *testing.T) {
	ds := testDataset(t, 51)
	const fanout = 3
	s := NewNeighborSampler(ds.G, ds.TrainMask, 16, fanout, 1, 2)
	b := s.Sample()
	// One-hop expansion: at most batch*(fanout) context beyond the targets.
	targets := 0
	for _, m := range b.TargetMask {
		if m {
			targets++
		}
	}
	if len(b.Nodes)-targets > targets*fanout {
		t.Fatalf("context %d exceeds fanout bound %d", len(b.Nodes)-targets, targets*fanout)
	}
}

func TestSAINTWalkStaysConnectedToRoots(t *testing.T) {
	// Every walk-sampled node is reachable from some root by construction;
	// with the induced subgraph it must have a neighbor in the batch unless
	// it was an isolated root.
	ds := testDataset(t, 52)
	s := NewGraphSAINTSampler(ds.G, ds.TrainMask, SAINTWalk, 150, 5, 3)
	b := s.Sample()
	isolated := 0
	for v := int32(0); v < int32(b.G.N); v++ {
		if b.G.Degree(v) == 0 {
			isolated++
		}
	}
	if isolated > len(b.Nodes)/4 {
		t.Fatalf("%d of %d walk nodes isolated; walks should stay connected", isolated, len(b.Nodes))
	}
}

func TestMinibatchTrainerMultiLabel(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Name: "ml", Nodes: 500, Communities: 8, AvgDegree: 12,
		IntraFrac: 0.75, DegreeSkew: 1.8, FeatureDim: 16,
		FeatureSignal: 0.4, FeatureNoise: 1.0,
		MultiLabel: true, LabelsPerNode: 2,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: 53,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewGraphSAINTSampler(ds.G, ds.TrainMask, SAINTNode, 150, 4, 4)
	tr, err := NewMinibatchTrainer(ds, modelCfg(), s)
	if err != nil {
		t.Fatal(err)
	}
	before := tr.Evaluate(ds.TestMask)
	for e := 0; e < 15; e++ {
		tr.TrainEpoch()
	}
	if after := tr.Evaluate(ds.TestMask); !(after > before) {
		t.Fatalf("multi-label minibatch training did not improve: %v -> %v", before, after)
	}
}

func TestBNSDroppedEdgesBounds(t *testing.T) {
	ds := testDataset(t, 54)
	topo := buildTopo(t, ds, 4)
	if got := sampledDropped(topo, 1.0); got != 0 {
		t.Fatalf("p=1 drops %d edges, want 0", got)
	}
	all := sampledDropped(topo, 0.0)
	half := sampledDropped(topo, 0.5)
	if !(half > 0 && half < all) {
		t.Fatalf("drop counts not ordered: half=%d all=%d", half, all)
	}
}

func sampledDropped(topo *core.Topology, p float64) int64 {
	return BNSDroppedEdges(topo, p)
}

func buildTopo(t *testing.T, ds *datagen.Dataset, k int) *core.Topology {
	t.Helper()
	parts := make([]int32, ds.G.N)
	for v := range parts {
		parts[v] = int32(v % k)
	}
	topo, err := core.BuildTopology(ds.G, parts, k)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestMinibatchTrainerRejectsOutOfRangeLabels: the minibatch trainer refuses
// a training label outside [0, NumClasses) at construction, naming the node
// and the label, and accepts an out-of-range label off the training mask.
func TestMinibatchTrainerRejectsOutOfRangeLabels(t *testing.T) {
	ds := testDataset(t, 5)
	for _, tc := range []struct {
		y     int32
		train bool
		want  string
	}{
		{-1, true, "training node 7 has label -1"},
		{int32(ds.NumClasses), true, fmt.Sprintf("training node 7 has label %d", ds.NumClasses)},
		{-1, false, ""},
	} {
		c := *ds
		c.Labels = append([]int32(nil), ds.Labels...)
		c.TrainMask = append([]bool(nil), ds.TrainMask...)
		c.Labels[7], c.TrainMask[7] = tc.y, tc.train
		s := NewGraphSAINTSampler(c.G, c.TrainMask, SAINTNode, 150, 4, 4)
		_, err := NewMinibatchTrainer(&c, modelCfg(), s)
		if tc.want == "" && err != nil {
			t.Errorf("label %d train=%v: %v, want accepted", tc.y, tc.train, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("label %d train=%v: error %v, want one containing %q", tc.y, tc.train, err, tc.want)
		}
	}
}
