package repro

// One testing.B benchmark per table and figure of the paper's evaluation
// section. Each bench drives the same code path as `bnsbench -exp <id>` in
// quick mode (a few epochs), so `go test -bench=.` exercises every
// experiment end to end; full-size numbers come from cmd/bnsbench.

import (
	"io"
	"testing"

	"repro/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	o := experiments.Options{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(io.Discard, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1PartitionBoundary(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2Variance(b *testing.B)          { benchExperiment(b, "table2") }
func BenchmarkTable3Datasets(b *testing.B)          { benchExperiment(b, "table3") }
func BenchmarkTable4Accuracy(b *testing.B)          { benchExperiment(b, "table4") }
func BenchmarkTable5VsSamplers(b *testing.B)        { benchExperiment(b, "table5") }
func BenchmarkTable6Papers100M(b *testing.B)        { benchExperiment(b, "table6") }
func BenchmarkTable7RandomPartition(b *testing.B)   { benchExperiment(b, "table7") }
func BenchmarkTable8PartitionerGains(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkTable9EdgeSampling(b *testing.B)      { benchExperiment(b, "table9") }
func BenchmarkTable10GAT(b *testing.B)              { benchExperiment(b, "table10") }
func BenchmarkTable11EpochTime(b *testing.B)        { benchExperiment(b, "table11") }
func BenchmarkTable12SamplingOverhead(b *testing.B) { benchExperiment(b, "table12") }
func BenchmarkTable13ChoiceOfP(b *testing.B)        { benchExperiment(b, "table13") }
func BenchmarkFig3BoundaryImbalance(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4Throughput(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFig5TimeBreakdown(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig6MemorySaving(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7Convergence(b *testing.B)         { benchExperiment(b, "fig7") }
func BenchmarkFig8MemoryBalance(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkAblationEstimator(b *testing.B)       { benchExperiment(b, "ablation1") }
func BenchmarkFig9ConvergenceAppendix(b *testing.B) { benchExperiment(b, "fig9") }
