package core

import (
	"runtime"
	"testing"

	"repro/internal/datagen"
	"repro/internal/partition"
)

// trainerHeap builds a trainer at sampling rate p, trains a few epochs so
// every scratch buffer exists, and returns the heap it holds: live bytes
// after a collection, less what was live before it was built.
func trainerHeap(t *testing.T, ds *datagen.Dataset, topo *Topology, p float64) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cfg := ModelConfig{Arch: ArchSAGE, Layers: 3, Hidden: 64, Dropout: 0.2, LR: 0.01, Seed: 7}
	tr, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: cfg, P: p, SampleSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 4; e++ {
		tr.TrainEpoch()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// TestTrainerMemoryScalesWithP is Figure 6 as a gate: on a boundary-heavy
// partition (a random 4-way split, ≈3 boundary nodes per inner node — the
// regime the paper samples in), the trainers at p=0.1 must hold at most 0.6
// of the heap the trainers at p=1 hold. The engine measures 0.50 here (see
// PERFORMANCE.md, "What scales with p"); one whose per-layer buffers keep a
// row for every boundary slot, sampled or not, measures 0.83 and fails.
func TestTrainerMemoryScalesWithP(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Name: "mem", Nodes: 4000, Communities: 8, AvgDegree: 24,
		IntraFrac: 0.65, DegreeSkew: 2.0, FeatureDim: 48,
		FeatureSignal: 0.5, FeatureNoise: 1.0,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	parts, err := (&partition.Random{Seed: 7}).Partition(ds.G, k)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(ds.G, parts, k)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range topo.BoundaryRatios() {
		if r < 2 {
			t.Fatalf("partition %d: boundary/inner = %.2f, the fixture is meant to be boundary-heavy (≥ 2)", i, r)
		}
	}
	full := trainerHeap(t, ds, topo, 1)
	sampled := trainerHeap(t, ds, topo, 0.1)
	ratio := sampled / full
	t.Logf("trainer heap: %.1f MB at p=0.1, %.1f MB at p=1, ratio %.2f", sampled/(1<<20), full/(1<<20), ratio)
	if ratio > 0.6 {
		t.Errorf("trainers at p=0.1 hold %.2f of the heap of trainers at p=1, want at most 0.6", ratio)
	}
}
