package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/partition"
)

func benchTrainer(b *testing.B, p float64, k int) *ParallelTrainer {
	b.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Name: "bench", Nodes: 2000, Communities: 8, AvgDegree: 16,
		IntraFrac: 0.8, DegreeSkew: 2.0, FeatureDim: 32,
		FeatureSignal: 0.5, FeatureNoise: 1.0,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := (&partition.Metis{Seed: 1}).Partition(ds.G, k)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := BuildTopology(ds.G, parts, k)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 32, Dropout: 0, LR: 0.01, Seed: 1}
	tr, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: cfg, P: p, SampleSeed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkEpochVanilla is partition-parallel training without sampling.
func BenchmarkEpochVanilla(b *testing.B) {
	tr := benchTrainer(b, 1.0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainEpoch()
	}
}

// BenchmarkEpochBNS01 shows the per-epoch effect of p=0.1 sampling.
func BenchmarkEpochBNS01(b *testing.B) {
	tr := benchTrainer(b, 0.1, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainEpoch()
	}
}

// BenchmarkEpochIsolated is the p=0 lower bound (no communication).
func BenchmarkEpochIsolated(b *testing.B) {
	tr := benchTrainer(b, 0.0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainEpoch()
	}
}

func BenchmarkBuildTopology(b *testing.B) {
	ds, err := datagen.Generate(datagen.Config{
		Name: "bench", Nodes: 5000, Communities: 8, AvgDegree: 16,
		IntraFrac: 0.7, DegreeSkew: 1.8, FeatureDim: 4,
		TrainFrac: 0.5, ValFrac: 0.2, Seed: 1, StructureOnly: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := (&partition.Metis{Seed: 1}).Partition(ds.G, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTopology(ds.G, parts, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHighDegTrainer builds a redditsim-shaped high-degree workload where
// neighbor aggregation (avg degree ~96) dominates the epoch — the shape the
// sparse SpMM engine targets.
func benchHighDegTrainer(b *testing.B, p float64, k int) *ParallelTrainer {
	b.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Name: "redditsim-bench", Nodes: 2500, Communities: 32, AvgDegree: 96,
		IntraFrac: 0.65, DegreeSkew: 2.0, FeatureDim: 48,
		FeatureSignal: 0.14, FeatureNoise: 1.0,
		TrainFrac: 0.66, ValFrac: 0.10, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := (&partition.Metis{Seed: 1}).Partition(ds.G, k)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := BuildTopology(ds.G, parts, k)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 64, Dropout: 0, LR: 0.01, Seed: 1}
	tr, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: cfg, P: p, SampleSeed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkEpochHighDegK1 and K4 are aggregation-dominated epochs (k =
// partition count).
func BenchmarkEpochHighDegK1(b *testing.B) {
	tr := benchHighDegTrainer(b, 1.0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainEpoch()
	}
}

func BenchmarkEpochHighDegK4(b *testing.B) {
	tr := benchHighDegTrainer(b, 1.0, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainEpoch()
	}
}
