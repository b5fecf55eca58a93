package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/partition"
)

// allocTrainer builds a small 4-partition trainer for allocation tests.
func allocTrainer(t testing.TB, arch Arch, p float64) *ParallelTrainer {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Name: "alloc", Nodes: 1200, Communities: 6, AvgDegree: 12,
		IntraFrac: 0.8, DegreeSkew: 2.0, FeatureDim: 32,
		FeatureSignal: 0.5, FeatureNoise: 1.0,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := (&partition.Metis{Seed: 7}).Partition(ds.G, 4)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(ds.G, parts, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ModelConfig{Arch: arch, Layers: 2, Hidden: 32, Dropout: 0.5, LR: 0.01, Seed: 7}
	tr, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: cfg, P: p, SampleSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// steadyEpochs is the allocation gates' measurement window. At p<1 the epoch
// node space follows the sample, so scratch sized by an early epoch meets a
// new maximum of the sampled count every so often (the running maximum of n
// draws is beaten about ln n times); thirty epochs measured one by one put
// such a late regrow in front of the gate, where ten averaged ones hid it.
const steadyEpochs = 30

// maxEpochAllocs runs steadyEpochs epochs and returns the most heap objects
// and the most bytes any single one of them allocated, process-wide. Like
// testing.AllocsPerRun it measures at GOMAXPROCS 1, so the runtime's own
// background workers stay out of the count; the kernel pool keeps the width
// it was started with.
func maxEpochAllocs(epoch func()) (objs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i := 0; i < steadyEpochs; i++ {
		runtime.ReadMemStats(&before)
		epoch()
		runtime.ReadMemStats(&after)
		objs = max(objs, after.Mallocs-before.Mallocs)
		bytes = max(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objs, bytes
}

// steadyBytes bounds what one steady-state epoch may allocate, at every pool
// width: the per-epoch fan-out and stats are a few hundred bytes, the smallest epoch-sized scratch of these fixtures (the
// aggregation plan's per-node arrays) several kilobytes and a layer or
// dropout matrix tens, so a single scratch regrow inside the window fails.
// Measured at GOMAXPROCS 1, 2 and 4: at most 1680 bytes at each. While the dW
// reductions folded pooled per-worker partials the figure was 1680 / 10576 /
// 37120 and the bound could be checked at width 1 only. (Over TCP, and
// under -race, it still is: see the two tests.)
const steadyBytes = 4 << 10

func checkSteadyBytes(t *testing.T, name string, bytes uint64) {
	t.Helper()
	if bytes > steadyBytes {
		t.Errorf("%s: an epoch of the steady-state window allocated %d bytes (budget %d): scratch regrew after warm-up", name, bytes, steadyBytes)
	}
}

// TestTrainEpochSteadyStateAllocs pins the zero-allocation hot path: after
// warm-up, one BNS-GCN epoch must allocate only the small fixed overhead of
// the per-epoch goroutine fan-out (Cluster.Run) and the returned stats — far
// below the per-epoch matrices the seed implementation churned through — in
// every epoch of the window, not on average.
func TestTrainEpochSteadyStateAllocs(t *testing.T) {
	for _, arch := range []Arch{ArchSAGE, ArchGAT} {
		for _, p := range []float64{1.0, 0.1, 0.5, 0.02} {
			tr := allocTrainer(t, arch, p)
			for i := 0; i < 3; i++ {
				tr.TrainEpoch() // warm up layer scratch and epoch workspaces
			}
			// An evaluation between epochs (its own allocations are not the
			// gate's: it runs at the -eval-every cadence, not per epoch) leaves
			// nothing for the epochs after it to regrow or rebuild.
			tr.Evaluate(tr.DS.TestMask)
			// Measured steady state over the four p: 14–22 allocs/epoch at
			// GOMAXPROCS=1, 14–26 at 2, 14–24 at 4 (seed: ~380). Every
			// kernel, the dW reductions included, runs on the one dispatcher,
			// which builds no closures, spawns no goroutines and keeps its
			// tasks on a free list of its own, so neither the pool width nor
			// -race adds anything; with the reductions on their own per-call
			// fan-out it was 14–22 / 56–67 / 89–96, and with the tasks in a
			// sync.Pool, which drops objects under -race, a -race run with
			// pool workers needed 40 + 50·procs and no byte bound.
			const budget = 40
			allocs, bytes := maxEpochAllocs(func() { tr.TrainEpoch() })
			if allocs > budget {
				t.Errorf("%s p=%v: a steady-state TrainEpoch allocates %d objects, budget %d", arch, p, allocs, budget)
			}
			checkSteadyBytes(t, fmt.Sprintf("%s p=%v", arch, p), bytes)
			t.Logf("%s p=%v: steady-state max allocs/epoch = %d (%d bytes)", arch, p, allocs, bytes)
		}
	}
}
