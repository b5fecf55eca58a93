package sampling

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/partition"
)

func testDataset(t *testing.T, seed uint64) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Name: "sampling-test", Nodes: 600, Communities: 6, AvgDegree: 10,
		IntraFrac: 0.8, DegreeSkew: 2.0, FeatureDim: 12,
		FeatureSignal: 0.5, FeatureNoise: 1.0,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func modelCfg() core.ModelConfig {
	return core.ModelConfig{Arch: core.ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0, LR: 0.01, Seed: 7}
}

// checkBatch verifies Batch invariants common to all samplers.
func checkBatch(t *testing.T, ds *datagen.Dataset, b *Batch, trainMask []bool) {
	t.Helper()
	if len(b.Nodes) == 0 {
		t.Fatal("empty batch")
	}
	if b.G.N != len(b.Nodes) || len(b.TargetMask) != len(b.Nodes) {
		t.Fatalf("batch shapes: G.N=%d nodes=%d mask=%d", b.G.N, len(b.Nodes), len(b.TargetMask))
	}
	if err := b.G.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	targets := 0
	for i, v := range b.Nodes {
		if seen[v] {
			t.Fatalf("duplicate node %d in batch", v)
		}
		seen[v] = true
		if b.TargetMask[i] {
			targets++
			if !trainMask[v] {
				t.Fatalf("target %d is not a train node", v)
			}
		}
	}
	if targets == 0 {
		t.Fatal("batch has no targets")
	}
	// Induced edges must exist globally.
	for v := int32(0); v < int32(b.G.N); v++ {
		for _, u := range b.G.Neighbors(v) {
			if !ds.G.HasEdge(b.Nodes[v], b.Nodes[u]) {
				t.Fatalf("phantom edge %d-%d", b.Nodes[v], b.Nodes[u])
			}
		}
	}
}

func TestNeighborSamplerBatches(t *testing.T) {
	ds := testDataset(t, 1)
	s := NewNeighborSampler(ds.G, ds.TrainMask, 32, 5, 2, 1)
	for i := 0; i < 5; i++ {
		checkBatch(t, ds, s.Sample(), ds.TrainMask)
	}
	if s.BatchesPerEpoch() < 5 {
		t.Fatalf("batches per epoch %d", s.BatchesPerEpoch())
	}
}

func TestNeighborSamplerCoversEpoch(t *testing.T) {
	ds := testDataset(t, 2)
	s := NewNeighborSampler(ds.G, ds.TrainMask, 50, 3, 2, 2)
	seen := map[int32]bool{}
	for i := 0; i < s.BatchesPerEpoch(); i++ {
		b := s.Sample()
		for j, v := range b.Nodes {
			if b.TargetMask[j] {
				seen[v] = true
			}
		}
	}
	want := len(trainNodeList(ds.TrainMask))
	if len(seen) != want {
		t.Fatalf("one epoch covered %d of %d train nodes", len(seen), want)
	}
}

func TestFastGCNSampler(t *testing.T) {
	ds := testDataset(t, 3)
	s := NewFastGCNSampler(ds.G, ds.TrainMask, 32, 100, 3)
	b := s.Sample()
	checkBatch(t, ds, b, ds.TrainMask)
	if len(b.Nodes) < 40 { // 32 targets + sampled context (with overlap)
		t.Fatalf("batch only %d nodes", len(b.Nodes))
	}
}

func TestLADIESSampler(t *testing.T) {
	ds := testDataset(t, 4)
	s := NewLADIESSampler(ds.G, ds.TrainMask, 32, 64, 2, 4)
	b := s.Sample()
	checkBatch(t, ds, b, ds.TrainMask)
}

func TestLADIESContextIsNeighborhood(t *testing.T) {
	// Every non-target node must be reachable: it was drawn from a
	// neighborhood pool, so it must be adjacent (in the global graph) to at
	// least one other batch node.
	ds := testDataset(t, 5)
	s := NewLADIESSampler(ds.G, ds.TrainMask, 16, 32, 2, 5)
	b := s.Sample()
	inBatch := map[int32]bool{}
	for _, v := range b.Nodes {
		inBatch[v] = true
	}
	for i, v := range b.Nodes {
		if b.TargetMask[i] {
			continue
		}
		found := false
		for _, u := range ds.G.Neighbors(v) {
			if inBatch[u] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("context node %d disconnected from batch", v)
		}
	}
}

func TestClusterGCNSampler(t *testing.T) {
	ds := testDataset(t, 6)
	parts, err := (&partition.Metis{Seed: 2}).Partition(ds.G, 12)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewClusterGCNSampler(ds.G, ds.TrainMask, parts, 12, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	b := s.Sample()
	checkBatch(t, ds, b, ds.TrainMask)
	if s.BatchesPerEpoch() != 4 {
		t.Fatalf("batches per epoch %d, want 4", s.BatchesPerEpoch())
	}
}

func TestClusterGCNRejectsBadParts(t *testing.T) {
	ds := testDataset(t, 7)
	if _, err := NewClusterGCNSampler(ds.G, ds.TrainMask, []int32{0}, 2, 1, 1); err == nil {
		t.Fatal("short parts must error")
	}
}

func TestGraphSAINTModes(t *testing.T) {
	ds := testDataset(t, 8)
	for _, mode := range []SAINTMode{SAINTNode, SAINTEdge, SAINTWalk} {
		s := NewGraphSAINTSampler(ds.G, ds.TrainMask, mode, 120, 4, 8)
		b := s.Sample()
		checkBatch(t, ds, b, ds.TrainMask)
		if mode == SAINTNode && len(b.Nodes) != 120 {
			t.Fatalf("node mode picked %d nodes, want 120", len(b.Nodes))
		}
	}
}

func TestSamplerNames(t *testing.T) {
	ds := testDataset(t, 9)
	if NewNeighborSampler(ds.G, ds.TrainMask, 8, 2, 1, 1).Name() != "NeighborSampling" {
		t.Fatal("bad name")
	}
	if NewGraphSAINTSampler(ds.G, ds.TrainMask, SAINTWalk, 10, 2, 1).Name() != "GraphSAINT-walk" {
		t.Fatal("bad saint name")
	}
}

func TestMinibatchTrainingLearns(t *testing.T) {
	ds := testDataset(t, 10)
	s := NewGraphSAINTSampler(ds.G, ds.TrainMask, SAINTNode, 200, 4, 10)
	tr, err := NewMinibatchTrainer(ds, modelCfg(), s)
	if err != nil {
		t.Fatal(err)
	}
	first := tr.TrainEpoch()
	for i := 0; i < 20; i++ {
		tr.TrainEpoch()
	}
	last := tr.TrainEpoch()
	if !(last < first) {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if acc := tr.Evaluate(ds.TestMask); acc < 0.4 {
		t.Fatalf("GraphSAINT accuracy %v too low", acc)
	}
	if tr.OverheadFraction() <= 0 || tr.OverheadFraction() >= 1 {
		t.Fatalf("overhead fraction %v", tr.OverheadFraction())
	}
}

func TestEdgeDropTrainer(t *testing.T) {
	ds := testDataset(t, 11)
	parts, err := (&partition.Metis{Seed: 3}).Partition(ds.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.BuildTopology(ds.G, parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewEdgeDropTrainer(ds, topo, modelCfg(), DropEdgeGlobal, 0.7, 12)
	if err != nil {
		t.Fatal(err)
	}
	first := tr.TrainEpoch()
	if tr.LastDroppedEdges == 0 {
		t.Fatal("DropEdge dropped nothing")
	}
	// Roughly 30% of edges dropped.
	frac := float64(tr.LastDroppedEdges) / float64(ds.G.NumEdges())
	if math.Abs(frac-0.3) > 0.05 {
		t.Fatalf("dropped fraction %v, want ~0.3", frac)
	}
	for i := 0; i < 15; i++ {
		tr.TrainEpoch()
	}
	last := tr.TrainEpoch()
	if !(last < first) {
		t.Fatalf("DropEdge loss did not decrease: %v -> %v", first, last)
	}
}

func TestBESOnlyDropsCrossEdges(t *testing.T) {
	ds := testDataset(t, 13)
	parts, err := (&partition.Metis{Seed: 4}).Partition(ds.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.BuildTopology(ds.G, parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	var cross int64
	for v := int32(0); v < int32(ds.G.N); v++ {
		for _, u := range ds.G.Neighbors(v) {
			if u > v && parts[u] != parts[v] {
				cross++
			}
		}
	}
	tr, err := NewEdgeDropTrainer(ds, topo, modelCfg(), DropEdgeBoundary, 0.5, 14)
	if err != nil {
		t.Fatal(err)
	}
	tr.TrainEpoch()
	if tr.LastDroppedEdges > cross {
		t.Fatalf("BES dropped %d > %d cross edges", tr.LastDroppedEdges, cross)
	}
	if tr.LastDroppedEdges == 0 {
		t.Fatal("BES dropped nothing")
	}
}

// TestEdgeDropCommVolumeExceedsBNS reproduces the paper's core Table 9
// claim: dropping edges leaves most boundary nodes still needed, so the
// residual communication volume far exceeds BNS at the same edge budget.
// The effect grows with density (each boundary node has many cross edges, so
// surviving ones keep it alive), hence the denser-than-default graph —
// the paper's Reddit has average degree 984.
func TestEdgeDropCommVolumeExceedsBNS(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Name: "dense", Nodes: 600, Communities: 6, AvgDegree: 40,
		IntraFrac: 0.6, DegreeSkew: 2.0, FeatureDim: 8,
		FeatureSignal: 0.5, FeatureNoise: 1.0,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := (&partition.Metis{Seed: 5}).Partition(ds.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.BuildTopology(ds.G, parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := 0.1
	// Match dropped-edge budgets.
	bnsDrop := BNSDroppedEdges(topo, p)
	var cross int64
	for v := int32(0); v < int32(ds.G.N); v++ {
		for _, u := range ds.G.Neighbors(v) {
			if u > v && parts[u] != parts[v] {
				cross++
			}
		}
	}
	keep := 1 - float64(bnsDrop)/float64(cross)
	if keep < 0 {
		keep = 0
	}
	tr, err := NewEdgeDropTrainer(ds, topo, modelCfg(), DropEdgeBoundary, keep, 16)
	if err != nil {
		t.Fatal(err)
	}
	tr.TrainEpoch()
	bnsVol := float64(topo.CommVolume()) * p
	if float64(tr.LastCommVolume) < 2*bnsVol {
		t.Fatalf("BES residual volume %d not well above BNS %v", tr.LastCommVolume, bnsVol)
	}
}

// TestStructureOnlyDatasetRefused: a dataset generated without features
// (datagen's StructureOnly) is refused with an error by every trainer
// constructor; before, the full-graph and partition-parallel trainers took
// it and panicked in their first pass.
func TestStructureOnlyDatasetRefused(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Name: "structure-only", Nodes: 400, Communities: 4, AvgDegree: 8,
		IntraFrac: 0.8, FeatureDim: 12, TrainFrac: 0.6, ValFrac: 0.2, Seed: 1,
		StructureOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := (&partition.Metis{Seed: 1}).Partition(ds.G, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.BuildTopology(ds.G, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := modelCfg()
	build := map[string]func() error{
		"NewFullTrainer": func() error { _, err := core.NewFullTrainer(ds, cfg); return err },
		"NewParallelTrainer": func() error {
			_, err := core.NewParallelTrainer(ds, topo, core.ParallelConfig{Model: cfg, P: 0.5})
			return err
		},
		"NewMinibatchTrainer": func() error {
			_, err := NewMinibatchTrainer(ds, cfg, NewNeighborSampler(ds.G, ds.TrainMask, 32, 4, 2, 1))
			return err
		},
	}
	for name, f := range build {
		t.Run(name, func(t *testing.T) {
			if err := f(); err == nil || !strings.Contains(err.Error(), "structure-only") {
				t.Fatalf("err = %v, want a structure-only refusal", err)
			}
		})
	}
}
