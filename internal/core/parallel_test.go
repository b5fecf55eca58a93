package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/partition"
)

// testDataset is a small community graph used across core tests.
func testDataset(t testing.TB, seed uint64) *datagen.Dataset {
	t.Helper()
	return testDatasetDim(t, seed, 12)
}

// wideDataset is testDataset's shape with 1024 features a node: a layer-0
// halo frame of an evaluation holds evalFrameFloats/1024 rows, so each peer's
// block of an evaluation travels in many frames, while the hidden layers'
// blocks fit in one.
func wideDataset(t testing.TB, seed uint64) *datagen.Dataset {
	t.Helper()
	return testDatasetDim(t, seed, 1024)
}

func testDatasetDim(t testing.TB, seed uint64, dim int) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Name: "core-test", Nodes: 600, Communities: 6, AvgDegree: 10,
		IntraFrac: 0.8, DegreeSkew: 2.0, FeatureDim: dim,
		FeatureSignal: 0.5, FeatureNoise: 1.0,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testTopology(t testing.TB, ds *datagen.Dataset, k int) *Topology {
	t.Helper()
	parts, err := (&partition.Metis{Seed: 1}).Partition(ds.G, k)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(ds.G, parts, k)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func testModelConfig() ModelConfig {
	return ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0, LR: 0.01, Seed: 42}
}

// TestParallelP1MatchesFullGraph is the central correctness property:
// partition-parallel training with p=1 and no dropout is mathematically
// identical to single-process full-graph training, for any partition count.
func TestParallelP1MatchesFullGraph(t *testing.T) {
	ds := testDataset(t, 1)
	full, err := NewFullTrainer(ds, testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		topo := testTopology(t, ds, k)
		par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: 1.0, SampleSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		// Fresh full trainer per k so optimizer state starts equal.
		full, err = NewFullTrainer(ds, testModelConfig())
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 5; epoch++ {
			fLoss := full.TrainEpoch()
			stats := par.TrainEpoch()
			if math.Abs(fLoss-stats.Loss) > 1e-3*(1+math.Abs(fLoss)) {
				t.Fatalf("k=%d epoch %d: full loss %v vs parallel %v", k, epoch, fLoss, stats.Loss)
			}
		}
		fAcc := full.Evaluate(ds.TestMask)
		pAcc := par.Evaluate(ds.TestMask)
		if math.Abs(fAcc-pAcc) > 0.02 {
			t.Fatalf("k=%d: full acc %v vs parallel %v", k, fAcc, pAcc)
		}
	}
}

// TestCommBytesMatchEq3 checks the byte counters against Eq. 3 exactly:
// per epoch at p=1, forward traffic is Vol·Σ_ℓ d_ℓ floats and backward
// traffic is Vol·Σ_{ℓ≥1} d_ℓ floats.
func TestCommBytesMatchEq3(t *testing.T) {
	ds := testDataset(t, 2)
	topo := testTopology(t, ds, 3)
	cfg := testModelConfig()
	par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: cfg, P: 1.0, SampleSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stats := par.TrainEpoch()
	vol := topo.CommVolume()
	dims := par.Models[0].LayerInputDims()
	var wantFloats int64
	for l, d := range dims {
		wantFloats += vol * int64(d) // forward layer l
		if l >= 1 {
			wantFloats += vol * int64(d) // backward layer l
		}
	}
	if stats.CommBytes != 4*wantFloats {
		t.Fatalf("comm bytes %d, want %d", stats.CommBytes, 4*wantFloats)
	}
}

func TestP0HasNoFeatureTraffic(t *testing.T) {
	ds := testDataset(t, 3)
	topo := testTopology(t, ds, 3)
	par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: 0, SampleSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stats := par.TrainEpoch()
	if stats.CommBytes != 0 {
		t.Fatalf("p=0 sent %d feature bytes", stats.CommBytes)
	}
	for _, n := range stats.SampledBd {
		if n != 0 {
			t.Fatal("p=0 sampled boundary nodes")
		}
	}
}

func TestSampledBoundaryCountNearP(t *testing.T) {
	ds := testDataset(t, 4)
	topo := testTopology(t, ds, 4)
	p := 0.3
	par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: p, SampleSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var total, expect float64
	for epoch := 0; epoch < 10; epoch++ {
		stats := par.TrainEpoch()
		for _, n := range stats.SampledBd {
			total += float64(n)
		}
		expect += p * float64(topo.CommVolume())
	}
	if math.Abs(total-expect) > 0.15*expect {
		t.Fatalf("sampled %v boundary nodes over 10 epochs, expected ~%v", total, expect)
	}
}

func TestBNSTrainingReachesUsefulAccuracy(t *testing.T) {
	ds := testDataset(t, 5)
	topo := testTopology(t, ds, 3)
	cfg := testModelConfig()
	par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: cfg, P: 0.25, SampleSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 40; epoch++ {
		par.TrainEpoch()
	}
	acc := par.Evaluate(ds.TestMask)
	if acc < 0.5 { // random would be 1/6
		t.Fatalf("BNS p=0.25 accuracy %v too low", acc)
	}
}

func TestParallelDeterministic(t *testing.T) {
	ds := testDataset(t, 6)
	topo := testTopology(t, ds, 3)
	run := func() []float64 {
		par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var losses []float64
		for epoch := 0; epoch < 3; epoch++ {
			losses = append(losses, par.TrainEpoch().Loss)
		}
		return losses
	}
	a, b := run(), run()
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}

func TestLocalPartitionStructure(t *testing.T) {
	ds := testDataset(t, 7)
	topo := testTopology(t, ds, 4)
	for i := 0; i < 4; i++ {
		lp := NewLocalPartition(ds, topo, i)
		if lp.NIn != len(topo.Inner[i]) || lp.NBd != len(topo.Boundary[i]) {
			t.Fatalf("partition %d sizes wrong", i)
		}
		// Every inner node's local adjacency must reference valid local ids
		// and correspond to a real global edge.
		for v := 0; v < lp.NIn; v++ {
			gv := lp.GlobalInner[v]
			nbrs := lp.fullIndices[lp.fullIndptr[v]:lp.fullIndptr[v+1]]
			if len(nbrs) != ds.G.Degree(gv) {
				t.Fatalf("partition %d node %d: %d local nbrs, %d global", i, v, len(nbrs), ds.G.Degree(gv))
			}
			for _, u := range nbrs {
				var gu int32
				if int(u) < lp.NIn {
					gu = lp.GlobalInner[u]
				} else {
					gu = lp.GlobalBoundary[int(u)-lp.NIn]
				}
				if !ds.G.HasEdge(gv, gu) {
					t.Fatalf("phantom local edge %d-%d", gv, gu)
				}
			}
		}
	}
}

func TestEpochGraphFiltersInactive(t *testing.T) {
	ds := testDataset(t, 8)
	topo := testTopology(t, ds, 2)
	lp := NewLocalPartition(ds, topo, 0)
	// All slots sampled: full degree.
	for s := range lp.active {
		lp.active[s] = true
	}
	gFull := lp.epochGraph()
	fullEdges := gFull.NumDirectedEdges()
	// No slot sampled: no halo edges remain.
	clear(lp.active)
	gInner := lp.epochGraph()
	if gInner.NumDirectedEdges() >= fullEdges {
		t.Fatal("filtering inactive halos did not drop edges")
	}
	for v := 0; v < lp.NIn; v++ {
		for _, u := range gInner.Neighbors(int32(v)) {
			if int(u) >= lp.NIn {
				t.Fatal("inactive halo survived filtering")
			}
		}
	}
}

func TestEvaluateUsesRankZeroWeights(t *testing.T) {
	ds := testDataset(t, 9)
	topo := testTopology(t, ds, 2)
	par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: 1, SampleSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := par.Evaluate(ds.ValMask)
	for i := 0; i < 15; i++ {
		par.TrainEpoch()
	}
	after := par.Evaluate(ds.ValMask)
	if after <= before {
		t.Fatalf("training did not improve val score: %v -> %v", before, after)
	}
}

func TestParallelRejectsBadP(t *testing.T) {
	ds := testDataset(t, 10)
	topo := testTopology(t, ds, 2)
	if _, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: 1.5}); err == nil {
		t.Fatal("p>1 must be rejected")
	}
	if _, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: -0.1}); err == nil {
		t.Fatal("p<0 must be rejected")
	}
}

// TestModelConfigRejectsBadDropout: a dropout rate outside [0,1) is a
// configuration error — NaN too, which every comparison lets through and
// which would drop every activation. So is a learning rate that is not
// finite and positive: a negative one trains by gradient ascent, a NaN one
// turns the weights to NaN.
func TestModelConfigRejectsBadDropout(t *testing.T) {
	for _, rate := range []float32{-0.1, 1, 1.5, float32(math.NaN())} {
		cfg := testModelConfig()
		cfg.Dropout = rate
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "core: dropout") {
			t.Fatalf("dropout %v: Validate() = %v, want a dropout error", rate, err)
		}
	}
	for _, lr := range []float32{-0.01, 0, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		cfg := testModelConfig()
		cfg.LR = lr
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "core: learning rate") {
			t.Fatalf("lr %v: Validate() = %v, want a learning-rate error", lr, err)
		}
	}
	cfg := testModelConfig()
	cfg.Dropout = 0.5
	if err := cfg.Validate(); err != nil {
		t.Fatalf("dropout 0.5: %v", err)
	}
}

// TestParallelRejectsMismatchedInputs: a dataset that is not the one the
// topology was cut from, and an evaluation mask that is not the graph's, are
// named errors where they are handed in — not an index out of range inside
// the partition gather or the scoring loop.
func TestParallelRejectsMismatchedInputs(t *testing.T) {
	ds := testDataset(t, 10)
	topo := testTopology(t, ds, 2)
	small, err := datagen.Generate(datagen.Config{
		Name: "small", Nodes: 300, Communities: 6, AvgDegree: 10, IntraFrac: 0.8, FeatureDim: 12,
		FeatureSignal: 0.5, FeatureNoise: 1.0, TrainFrac: 0.6, ValFrac: 0.2, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ParallelConfig{Model: testModelConfig(), P: 1}
	par, err := NewParallelTrainer(ds, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	evaluate := func(mask []bool) error {
		_, err := par.Ranks[0].Evaluate(par.Cluster.Worker(0), mask)
		return err
	}
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"rank trainer, dataset smaller than topology", second(NewRankTrainer(small, topo, cfg, 1)), "core: dataset has 300 nodes, topology 600"},
		{"parallel trainer, dataset smaller than topology", second(NewParallelTrainerOver(small, topo, cfg, comm.New(2, 0))), "core: dataset has 300 nodes, topology 600"},
		{"parallel trainer, dataset larger than topology", second(NewParallelTrainer(ds, testTopology(t, small, 2), cfg)), "core: dataset has 600 nodes, topology 300"},
		{"evaluation mask too short", evaluate(ds.TestMask[:599]), "core: evaluation mask has 599 entries, the graph 600 nodes"},
		{"evaluation mask too long", evaluate(append(ds.TestMask, true)), "core: evaluation mask has 601 entries, the graph 600 nodes"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s: got error %v, want %q", c.name, c.err, c.want)
		}
	}
}

func second[T any](_ T, err error) error { return err }

func TestGATParallelRuns(t *testing.T) {
	ds := testDataset(t, 11)
	topo := testTopology(t, ds, 2)
	cfg := ModelConfig{Arch: ArchGAT, Layers: 2, Hidden: 8, Dropout: 0, LR: 0.01, Seed: 3}
	par, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: cfg, P: 0.5, SampleSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for epoch := 0; epoch < 5; epoch++ {
		last = par.TrainEpoch().Loss
		if math.IsNaN(last) {
			t.Fatal("GAT loss is NaN")
		}
	}
}
