package costmodel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/partition"
)

func testWorkload(t *testing.T) Workload {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Name: "cm", Nodes: 2000, Communities: 8, AvgDegree: 20,
		IntraFrac: 0.7, DegreeSkew: 1.8, FeatureDim: 32,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: 1, StructureOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := (&partition.Metis{Seed: 1}).Partition(ds.G, 8)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.BuildTopology(ds.G, parts, 8)
	if err != nil {
		t.Fatal(err)
	}
	return FromTopology(topo, []int{32, 64, 64}, []int{64, 64, 16}, 10000)
}

func TestFromTopologyCounts(t *testing.T) {
	w := testWorkload(t)
	if w.K != 8 {
		t.Fatalf("workload %+v", w)
	}
	if w.MaxInner < 2000/8 {
		t.Fatalf("max inner %d below average", w.MaxInner)
	}
	if w.MaxBoundary <= 0 || w.MaxLocalEdges <= 0 {
		t.Fatalf("empty boundary stats: %+v", w)
	}
}

// redditWorkload mirrors the paper's Reddit/8-partition scale (Table 1:
// ~15k inner and up to 86k boundary nodes per partition; 4-layer 256-hidden
// GraphSAGE on 602-dim features) so the model is exercised in the regime
// the figures report, where byte volume dominates message latency.
func redditWorkload() Workload {
	return Workload{
		K: 8, MaxInner: 15000, MaxBoundary: 86000, MaxLocalEdges: 14000000,
		LayerIn:  []int{602, 256, 256, 256},
		LayerOut: []int{256, 256, 256, 41},
		Params:   (602*2*256 + 256*2*256*2 + 256*2*41),
	}
}

func TestBNSCommScalesWithP(t *testing.T) {
	w := redditWorkload()
	prof := Profile{GPUFlops: 3.3e12, LinkBandwidth: 6e9, LinkLatency: 20e-6}
	full := EstimateBNS(w, 1.0, prof)
	tenth := EstimateBNS(w, 0.1, prof)
	// Comm must shrink ~10x (latency floor allows some slack).
	if tenth.Comm > full.Comm/5 {
		t.Fatalf("p=0.1 comm %v not well below p=1 %v", tenth.Comm, full.Comm)
	}
	if tenth.Total() >= full.Total() {
		t.Fatal("sampling must reduce epoch time")
	}
	if full.Reduce != tenth.Reduce {
		t.Fatal("reduce time must not depend on p")
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{Compute: 1, Comm: 2, Reduce: 0.5}
	if b.Total() != 3.5 {
		t.Fatalf("total %v", b.Total())
	}
}
