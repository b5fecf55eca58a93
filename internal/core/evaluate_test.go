package core

import (
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// evalTopology is testTopology that also cuts the one-partition "topology".
func evalTopology(t testing.TB, ds *datagen.Dataset, k int) *Topology {
	t.Helper()
	if k > 1 {
		return testTopology(t, ds, k)
	}
	topo, err := BuildTopology(ds.G, make([]int32, ds.G.N), 1)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestEvaluateMatchesFullGraphBits pins what replaced the forked evaluator:
// evaluation through the engine's own forward stages gives every rank, for
// its inner rows, the logits FullTrainer.Forward(false) computes with the
// same weights — the same float32 bit patterns, not close ones — and the
// score assembled from the ranks' integer counts is FullTrainer.Evaluate's
// float64 exactly. Trained first at p=0.1 with dropout on, so the inference
// plan (every row, rate 1, identity dropout) differs from every plan the
// trainer has run. On the wide fixture each peer's layer-0 block arrives in
// many frames and each is filled into its rows as it lands; the hidden
// layer's block still travels in one.
func TestEvaluateMatchesFullGraphBits(t *testing.T) {
	sage := ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
	gat := ModelConfig{Arch: ArchGAT, Layers: 2, Hidden: 12, Dropout: 0.3, LR: 0.01, Seed: 4}
	for _, c := range []struct {
		name string
		ds   *datagen.Dataset
		mc   ModelConfig
		ks   []int
	}{
		{"sage", testDataset(t, 70), sage, []int{1, 2, 4}},
		{"gat", testDataset(t, 71), gat, []int{1, 2, 4}},
		{"multilabel", multiLabelDataset(t), sage, []int{1, 2, 4}},
		{"wide", wideDataset(t, 70), sage, []int{2, 4}},
	} {
		for _, k := range c.ks {
			topo := evalTopology(t, c.ds, k)
			for _, backend := range []string{"chan", "tcp"} {
				g := comm.New(k, 0)
				if backend == "tcp" {
					g = tcpLoopbackGroup(t, k)
				}
				tr, err := NewParallelTrainerOver(c.ds, topo, ParallelConfig{Model: c.mc, P: 0.1, SampleSeed: 5}, g)
				if err != nil {
					t.Fatal(err)
				}
				for e := 0; e < 4; e++ {
					tr.TrainEpoch()
				}
				ref := fullGraphReference(t, c.ds, tr.Models[0])
				want := ref.Forward(false)
				if differ := bitsDiffer(want, inferLogits(tr)); differ > 0 {
					t.Errorf("%s k=%d %s: %d of %d logits differ in bits from the full-graph forward", c.name, k, backend, differ, len(want.Data))
				}
				for _, mask := range [][]bool{c.ds.ValMask, c.ds.TestMask} {
					if s, w := tr.Evaluate(mask), ref.Evaluate(mask); s != w {
						t.Errorf("%s k=%d %s: Evaluate %v != full-graph %v", c.name, k, backend, s, w)
					}
				}
			}
		}
	}
}

// inferLogits runs an evaluation's forward pass on every rank of tr and
// returns the logits of the whole graph, each row from the rank that owns it.
func inferLogits(tr *ParallelTrainer) *tensor.Matrix {
	out := tensor.New(tr.DS.G.N, tr.Models[0].LayersL[len(tr.Models[0].LayersL)-1].OutputDim())
	tr.Cluster.Run(func(w *comm.Worker) {
		rt := tr.Ranks[w.Rank()]
		logits := rt.infer(w)
		for li, v := range rt.LP.GlobalInner {
			copy(out.Row(int(v)), logits.Row(li))
		}
	})
	return out
}

// bitsDiffer counts the elements of a and b whose float32 bits differ.
func bitsDiffer(a, b *tensor.Matrix) int {
	differ := 0
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			differ++
		}
	}
	return differ
}

// TestEvaluateLeavesTrainingUntouched: a trainer that evaluates before the
// first epoch and after every one ends where a twin that never evaluates
// does — losses, halo bytes and sampled counts per epoch, weights, and the
// position of every sampling and dropout stream — under each sampler (BNS's
// uniform rescale, LADIES' per-slot scales). What evaluation moves shows on
// the transport's counters and only there.
func TestEvaluateLeavesTrainingUntouched(t *testing.T) {
	samplers := maps.Clone(stratConfigs)
	samplers["bns"] = ParallelConfig{}
	for name, sc := range samplers {
		for _, arch := range []Arch{ArchSAGE, ArchGAT} {
			ds := testDataset(t, 72)
			topo := testTopology(t, ds, 3)
			mc := ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
			cfg := ParallelConfig{Model: mc, P: 0.3, SampleSeed: 9, Strategy: sc.Strategy, Budget: sc.Budget}
			a, err := NewParallelTrainer(ds, topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewParallelTrainer(ds, topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			a.Evaluate(ds.TestMask)
			for e := 0; e < 5; e++ {
				sa, sb := a.TrainEpoch(), b.TrainEpoch()
				if sa.Loss != sb.Loss || sa.CommBytes != sb.CommBytes || sa.ReduceBytes != sb.ReduceBytes || !slices.Equal(sa.SampledBd, sb.SampledBd) {
					t.Fatalf("%s/%s epoch %d: evaluating twin (loss %.17g, %d halo bytes, sampled %v) != plain twin (%.17g, %d, %v)",
						name, arch, e, sa.Loss, sa.CommBytes, sa.SampledBd, sb.Loss, sb.CommBytes, sb.SampledBd)
				}
				a.Evaluate(ds.ValMask)
			}
			for r := range a.Ranks {
				ra, rb := a.Ranks[r], b.Ranks[r]
				if d := MaxParamDiff(ra.Model, rb.Model); d != 0 {
					t.Errorf("%s/%s rank %d: weights differ by %v", name, arch, r, d)
				}
				if wa, wb := snapshotTrainer(ra).Resume.StrategyState, snapshotTrainer(rb).Resume.StrategyState; wa != wb {
					t.Errorf("%s/%s rank %d: evaluation advanced the sampling stream (%#x, plain twin %#x)", name, arch, r, wa, wb)
				}
				for l, d := range ra.Model.Dropouts {
					if d.RNGState() != rb.Model.Dropouts[l].RNGState() {
						t.Errorf("%s/%s rank %d layer %d: evaluation advanced the dropout stream", name, arch, r, l)
					}
				}
			}
			total := func(g *comm.Group) (n int64) {
				for r := range g.Size() {
					n += g.BytesSent(r)
				}
				return n
			}
			if ea, eb := total(a.Cluster), total(b.Cluster); ea <= eb {
				t.Errorf("%s/%s: transport counted %d bytes with six evaluations and %d without: evaluation halo traffic is not on the counters", name, arch, ea, eb)
			}
		}
	}
}

// TestRankTrainerDoesNotRetainDataset: a rank holds its partition and nothing
// global. Once the trainers are built and the caller's references dropped,
// the dataset and the topology are garbage — their finalizers run — while the
// trainers go on to train and evaluate.
func TestRankTrainerDoesNotRetainDataset(t *testing.T) {
	const k = 2
	ds := testDataset(t, 73)
	topo := testTopology(t, ds, k)
	mask := slices.Clone(ds.TestMask)
	// The graph and the feature matrix are watched on their own: the topology
	// points at the one and a gather could alias the other.
	freed := map[string]chan struct{}{}
	for _, name := range []string{"dataset", "graph", "features", "topology"} {
		freed[name] = make(chan struct{})
	}
	runtime.SetFinalizer(ds, func(*datagen.Dataset) { close(freed["dataset"]) })
	runtime.SetFinalizer(ds.G, func(*graph.Graph) { close(freed["graph"]) })
	runtime.SetFinalizer(ds.Features, func(*tensor.Matrix) { close(freed["features"]) })
	runtime.SetFinalizer(topo, func(*Topology) { close(freed["topology"]) })
	ranks := make([]*RankTrainer, k)
	for r := range ranks {
		var err error
		if ranks[r], err = NewRankTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 1}, r); err != nil {
			t.Fatal(err)
		}
	}
	ds, topo = nil, nil
	// A collection queues a finalizer, the next frees the object — and the
	// graph's and the features' are queued only once the dataset and topology
	// pointing at them are freed. Collect until all four have run.
	deadline := time.Now().Add(10 * time.Second)
	for name, ch := range freed {
		for waiting := true; waiting; {
			runtime.GC()
			select {
			case <-ch:
				waiting = false
			case <-time.After(time.Millisecond):
				if time.Now().After(deadline) {
					t.Errorf("the %s is still reachable once the trainers are built and the references to it dropped", name)
					waiting = false
				}
			}
		}
	}
	comm.New(k, 0).Run(func(w *comm.Worker) {
		rt := ranks[w.Rank()]
		if _, err := rt.TrainEpoch(w); err != nil {
			t.Error(err)
			return
		}
		if s, err := rt.Evaluate(w, mask); err != nil || !(s > 0) {
			t.Errorf("rank %d: evaluation without the dataset: score %v, error %v", w.Rank(), s, err)
		}
	})
}

// TestSumCountsIsExact: Evaluate's count exchange sums int64 counts exactly
// over both backends — counts past MaxInt32, and counts whose low or high
// float32 word reads as a quiet (0x7fc00001) or a signalling (0x7f800001)
// NaN — and every rank decodes the same sums.
func TestSumCountsIsExact(t *testing.T) {
	const k = 3
	const qnan, snan = 0x7fc00001, 0x7f800001
	counts := [k][3]int64{
		{1 << 40, qnan, snan << 32},
		{5, snan<<32 | qnan, 1<<40 + 3},
		{qnan << 32, snan, math.MaxInt32 + 1},
	}
	var want [3]int64
	for _, c := range counts {
		for i := range want {
			want[i] += c[i]
			if want[i] < c[i] {
				t.Fatalf("the test's counts overflow int64 in column %d", i)
			}
		}
	}
	for _, backend := range []struct {
		name  string
		group func() *comm.Group
	}{
		{"chan", func() *comm.Group { return comm.New(k, 0) }},
		{"tcp", func() *comm.Group { return tcpLoopbackGroup(t, k) }},
	} {
		g := backend.group()
		got := make([][3]int64, k)
		g.Run(func(w *comm.Worker) { got[w.Rank()] = sumCounts(w, counts[w.Rank()]) })
		for r := range got {
			if got[r] != want {
				t.Errorf("%s: rank %d decoded sums %#x, want %#x", backend.name, r, got[r], want)
			}
			if m := g.MessagesSent(r); m != k-1 {
				t.Errorf("%s: rank %d sent %d messages, want one to each of its %d peers", backend.name, r, m, k-1)
			}
		}
	}
}
