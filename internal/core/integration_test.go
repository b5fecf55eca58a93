package core

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/partition"
)

// TestReplicasStayIdentical verifies the core replication invariant: after
// any number of epochs at any p, every partition holds bit-identical model
// weights (AllReduce hands everyone the same bytes; Adam is deterministic).
func TestReplicasStayIdentical(t *testing.T) {
	ds := testDataset(t, 40)
	topo := testTopology(t, ds, 4)
	for _, p := range []float64{1.0, 0.3, 0.0} {
		par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: p, SampleSeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 5; e++ {
			par.TrainEpoch()
		}
		for r := 1; r < 4; r++ {
			if d := MaxParamDiff(par.Models[0], par.Models[r]); d != 0 {
				t.Fatalf("p=%v: replica %d diverged by %v", p, r, d)
			}
		}
	}
}

// TestSinglePartitionEqualsFullTrainer: k=1 partition-parallel training is
// the degenerate case with no boundary at all, and the engine and FullTrainer
// run every layer through the same Model stages: every epoch's loss and
// weights, and the scores after, must be the same bits — both archs, with
// dropout, on a single-label and a multi-label dataset.
func TestSinglePartitionEqualsFullTrainer(t *testing.T) {
	yelp, err := datagen.Generate(datagen.YelpSim(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []*datagen.Dataset{testDataset(t, 41), yelp} {
		topo, err := BuildTopology(ds.G, make([]int32, ds.G.N), 1)
		if err != nil {
			t.Fatal(err)
		}
		if topo.CommVolume() != 0 {
			t.Fatalf("k=1 volume %d", topo.CommVolume())
		}
		for _, arch := range []Arch{ArchSAGE, ArchGAT} {
			t.Run(ds.Name+"/"+string(arch), func(t *testing.T) {
				mc := ModelConfig{Arch: arch, Layers: 3, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
				par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: mc, P: 0.5, SampleSeed: 1})
				if err != nil {
					t.Fatal(err)
				}
				full, err := NewFullTrainer(ds, mc)
				if err != nil {
					t.Fatal(err)
				}
				for e := 0; e < 4; e++ {
					fLoss, pLoss := full.TrainEpoch(), par.TrainEpoch().Loss
					if fLoss != pLoss {
						t.Fatalf("epoch %d: loss %v, FullTrainer's %v", e, pLoss, fLoss)
					}
					if d := MaxParamDiff(full.Model, par.Models[0]); d != 0 {
						t.Fatalf("epoch %d: weights differ from FullTrainer's by %v", e, d)
					}
				}
				for _, mask := range [][]bool{ds.ValMask, ds.TestMask} {
					if f, p := full.Evaluate(mask), par.Evaluate(mask); f != p {
						t.Fatalf("score %v, FullTrainer's %v", p, f)
					}
				}
			})
		}
	}
}

// TestLossDecreasesAcrossP: training must make progress at every sampling
// rate, including p=0.
func TestLossDecreasesAcrossP(t *testing.T) {
	ds := testDataset(t, 42)
	topo := testTopology(t, ds, 3)
	for _, p := range []float64{1.0, 0.5, 0.1, 0.0} {
		par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: p, SampleSeed: 2})
		if err != nil {
			t.Fatal(err)
		}
		first := par.TrainEpoch().Loss
		for e := 0; e < 20; e++ {
			par.TrainEpoch()
		}
		last := par.TrainEpoch().Loss
		if !(last < first) {
			t.Fatalf("p=%v: loss %v -> %v did not decrease", p, first, last)
		}
	}
}

// TestEffectiveDegreeNormalizerAtP1 checks that the self-normalized
// estimator's denominator equals the exact full degree when p=1 (this is
// what makes the parity test possible, so pin it separately).
func TestEffectiveDegreeNormalizerAtP1(t *testing.T) {
	ds := testDataset(t, 43)
	topo := testTopology(t, ds, 3)
	lp := NewLocalPartition(ds, topo, 0)
	for s := range lp.active {
		lp.active[s] = true
	}
	eg := lp.epochGraph()
	for v := 0; v < lp.NIn; v++ {
		if eg.Degree(int32(v)) != ds.G.Degree(lp.GlobalInner[v]) {
			t.Fatalf("node %d: epoch degree %d != global %d",
				v, eg.Degree(int32(v)), ds.G.Degree(lp.GlobalInner[v]))
		}
	}
}

// TestLocalNbrCounts pins localNbrs against a brute-force recount.
func TestLocalNbrCounts(t *testing.T) {
	ds := testDataset(t, 44)
	topo := testTopology(t, ds, 4)
	for i := 0; i < 4; i++ {
		lp := NewLocalPartition(ds, topo, i)
		for li, v := range lp.GlobalInner {
			want := 0
			for _, u := range ds.G.Neighbors(v) {
				if topo.Parts[u] == int32(i) {
					want++
				}
			}
			if int(lp.localNbrs[li]) != want {
				t.Fatalf("partition %d node %d: localNbrs %d, want %d", i, li, lp.localNbrs[li], want)
			}
		}
	}
}

// TestGATHaloNotRescaled: for attention models the received halo features
// must NOT be 1/p-rescaled (softmax self-normalizes). We verify indirectly:
// GAT training at small p must stay numerically sane and reach better than
// p=0-style isolation... at minimum, not NaN and not collapsed to random.
func TestGATSmallPStable(t *testing.T) {
	ds := testDataset(t, 45)
	topo := testTopology(t, ds, 3)
	cfg := ModelConfig{Arch: ArchGAT, Layers: 2, Hidden: 12, Dropout: 0, LR: 0.01, Seed: 4}
	par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: cfg, P: 0.05, SampleSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 30; e++ {
		if st := par.TrainEpoch(); math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0) {
			t.Fatalf("epoch %d: loss %v", e, st.Loss)
		}
	}
	if acc := par.Evaluate(ds.TestMask); acc < 0.4 {
		t.Fatalf("GAT p=0.05 accuracy %v collapsed", acc)
	}
}

// multiLabelDataset is the BCE / micro-F1 fixture.
func multiLabelDataset(t testing.TB) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Name: "ml", Nodes: 600, Communities: 8, AvgDegree: 14,
		IntraFrac: 0.75, DegreeSkew: 1.8, FeatureDim: 16,
		FeatureSignal: 0.4, FeatureNoise: 1.0,
		MultiLabel: true, LabelsPerNode: 2,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: 46,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestMultiLabelParallelTraining exercises the BCE path end to end under
// partitioning and sampling.
func TestMultiLabelParallelTraining(t *testing.T) {
	ds := multiLabelDataset(t)
	parts, err := (&partition.Metis{Seed: 1}).Partition(ds.G, 3)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(ds.G, parts, 3)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: 0.3, SampleSeed: 6})
	if err != nil {
		t.Fatal(err)
	}
	before := par.Evaluate(ds.TestMask)
	for e := 0; e < 40; e++ {
		par.TrainEpoch()
	}
	after := par.Evaluate(ds.TestMask)
	if !(after > before) {
		t.Fatalf("micro-F1 did not improve: %v -> %v", before, after)
	}
}

// TestBackwardCommSkipsInputLayer: backward exchanges happen for layers
// 1..L-1 only, so a 1-layer model must send exactly the forward traffic.
func TestBackwardCommSkipsInputLayer(t *testing.T) {
	ds := testDataset(t, 47)
	topo := testTopology(t, ds, 3)
	cfg := ModelConfig{Arch: ArchSAGE, Layers: 1, Hidden: 8, Dropout: 0, LR: 0.01, Seed: 1}
	par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: cfg, P: 1.0, SampleSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := par.TrainEpoch()
	wantBytes := 4 * topo.CommVolume() * int64(ds.FeatureDim())
	if st.CommBytes != wantBytes {
		t.Fatalf("1-layer comm %d bytes, want forward-only %d", st.CommBytes, wantBytes)
	}
}

// TestEvalAgreesWithManualForward: ParallelTrainer.Evaluate must equal a
// manual full-graph forward with rank 0's weights.
func TestEvalAgreesWithManualForward(t *testing.T) {
	ds := testDataset(t, 48)
	topo := testTopology(t, ds, 2)
	par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 5; e++ {
		par.TrainEpoch()
	}
	got := par.Evaluate(ds.TestMask)

	want := fullGraphReference(t, ds, par.Models[0]).Evaluate(ds.TestMask)
	if got != want {
		t.Fatalf("Evaluate %v != manual %v", got, want)
	}
}

// fullGraphReference is the single-process full-graph trainer holding a copy
// of weights: what partition-parallel evaluation must reproduce.
func fullGraphReference(t testing.TB, ds *datagen.Dataset, weights *Model) *FullTrainer {
	t.Helper()
	clone, err := NewModel(weights.Config, ds.FeatureDim(), ds.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	clone.CopyWeightsFrom(weights)
	ft := &FullTrainer{DS: ds, Model: clone}
	ft.lay.Build(ds.G)
	return ft
}

// TestEstimatorsCoincideAtP1: Horvitz–Thompson and self-normalized
// aggregation are the same computation when every boundary node is kept.
func TestEstimatorsCoincideAtP1(t *testing.T) {
	ds := testDataset(t, 49)
	topo := testTopology(t, ds, 3)
	var losses [2]float64
	for i, est := range []Estimator{EstimatorSelfNorm, EstimatorHT} {
		par, err := NewParallelTrainer(ds, topo, ParallelConfig{
			Model: testModelConfig(), P: 1.0, SampleSeed: 1, Estimator: est,
		})
		if err != nil {
			t.Fatal(err)
		}
		var last float64
		for e := 0; e < 3; e++ {
			last = par.TrainEpoch().Loss
		}
		losses[i] = last
	}
	if losses[0] != losses[1] {
		t.Fatalf("estimators differ at p=1: %v vs %v", losses[0], losses[1])
	}
}

// TestHTEstimatorUsesGlobalDegree: at p<1 with EstimatorHT the training path
// must still run (unbiased but noisy) and remain finite.
func TestHTEstimatorRuns(t *testing.T) {
	ds := testDataset(t, 50)
	topo := testTopology(t, ds, 3)
	par, err := NewParallelTrainer(ds, topo, ParallelConfig{
		Model: testModelConfig(), P: 0.3, SampleSeed: 2, Estimator: EstimatorHT,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 10; e++ {
		if st := par.TrainEpoch(); math.IsNaN(st.Loss) {
			t.Fatal("HT estimator produced NaN loss")
		}
	}
}
