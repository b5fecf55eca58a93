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
	if w.K != 8 || w.TotalNodes != 2000 {
		t.Fatalf("workload %+v", w)
	}
	if w.MaxInner < 2000/8 {
		t.Fatalf("max inner %d below average", w.MaxInner)
	}
	if w.TotalBoundary <= 0 || w.MaxBoundary <= 0 || w.MaxLocalEdges <= 0 {
		t.Fatalf("empty boundary stats: %+v", w)
	}
}

// redditWorkload mirrors the paper's Reddit/8-partition scale (Table 1:
// ~15k inner and up to 86k boundary nodes per partition; 4-layer 256-hidden
// GraphSAGE on 602-dim features) so the model is exercised in the regime
// the figures report, where byte volume dominates message latency.
func redditWorkload() Workload {
	return Workload{
		K: 8, MaxInner: 15000, MaxBoundary: 86000,
		TotalBoundary: 460000, MaxLocalEdges: 14000000, TotalNodes: 233000,
		LayerIn:  []int{602, 256, 256, 256},
		LayerOut: []int{256, 256, 256, 41},
		Params:   (602*2*256 + 256*2*256*2 + 256*2*41),
	}
}

func TestBNSCommScalesWithP(t *testing.T) {
	w := redditWorkload()
	full := EstimateBNS(w, 1.0, SingleMachineRTX)
	tenth := EstimateBNS(w, 0.1, SingleMachineRTX)
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

func TestBNSBeatsBaselines(t *testing.T) {
	// Figure 4's ordering: BNS(p<1) > BNS(p=1) > ROC and CAGNET.
	w := redditWorkload()
	prof := SingleMachineRTX
	bns01 := EstimateBNS(w, 0.01, prof)
	bns1 := EstimateBNS(w, 1.0, prof)
	roc := EstimateROC(w, prof)
	cagnet1 := EstimateCAGNET(w, 1, prof)
	cagnet2 := EstimateCAGNET(w, 2, prof)
	if !(bns01.Throughput() > bns1.Throughput()) {
		t.Fatalf("BNS p=0.01 (%v) not faster than p=1 (%v)", bns01.Total(), bns1.Total())
	}
	if !(bns1.Throughput() > roc.Throughput()) {
		t.Fatalf("BNS p=1 (%v) not faster than ROC (%v)", bns1.Total(), roc.Total())
	}
	if !(bns1.Throughput() > cagnet1.Throughput()) {
		t.Fatalf("BNS p=1 (%v) not faster than CAGNET c=1 (%v)", bns1.Total(), cagnet1.Total())
	}
	if !(bns1.Throughput() > cagnet2.Throughput()) {
		t.Fatalf("BNS p=1 (%v) not faster than CAGNET c=2 (%v)", bns1.Total(), cagnet2.Total())
	}
	if !(cagnet2.Comm < cagnet1.Comm) {
		t.Fatal("CAGNET c=2 must communicate less than c=1 on a broadcast-bound workload")
	}
	if roc.Swap <= 0 {
		t.Fatal("ROC must pay swap time")
	}
}

func TestCommDominatesAtP1(t *testing.T) {
	// Figure 5's headline: communication is the majority of vanilla epoch
	// time on the single-machine profile.
	w := redditWorkload()
	b := EstimateBNS(w, 1.0, SingleMachineRTX)
	if b.Comm < b.Compute {
		t.Fatalf("comm %v below compute %v at p=1; profile not comm-bound", b.Comm, b.Compute)
	}
}

func TestMultiMachineMoreCommBound(t *testing.T) {
	// Table 6: the multi-machine profile is far more communication-bound.
	w := redditWorkload()
	single := EstimateBNS(w, 1.0, SingleMachineRTX)
	multi := EstimateBNS(w, 1.0, MultiMachineV100)
	if multi.Comm/multi.Compute <= single.Comm/single.Compute {
		t.Fatal("multi-machine profile must be more comm-bound")
	}
	if multi.Comm/multi.Compute < 20 {
		t.Fatalf("multi-machine comm/comp ratio %v too low for Table 6's regime",
			multi.Comm/multi.Compute)
	}
}

func TestMemoryReduction(t *testing.T) {
	w := testWorkload(t)
	r01 := MemoryReduction(w, 0.1)
	r05 := MemoryReduction(w, 0.5)
	if !(r01 > r05 && r05 > 0) {
		t.Fatalf("memory reductions not ordered: p=0.1 %v, p=0.5 %v", r01, r05)
	}
	if r01 >= 1 {
		t.Fatalf("reduction %v impossible", r01)
	}
	if MemoryReduction(w, 1.0) != 0 {
		t.Fatal("p=1 must give zero reduction")
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{Method: "X", Compute: 1, Comm: 2, Reduce: 0.5}
	if b.Total() != 3.5 {
		t.Fatalf("total %v", b.Total())
	}
	if b.Throughput() != 1/3.5 {
		t.Fatalf("throughput %v", b.Throughput())
	}
	if s := b.String(); len(s) == 0 {
		t.Fatal("empty string")
	}
}
