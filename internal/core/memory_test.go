package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/partition"
)

// memModel is the memory gates' model: the benchmark workloads' SAGE 3×64.
var memModel = ModelConfig{Arch: ArchSAGE, Layers: 3, Hidden: 64, Dropout: 0.2, LR: 0.01, Seed: 7}

// trainerHeap builds a trainer at sampling rate p over the group newGroup
// makes, trains a few epochs so every scratch buffer and transport pool
// exists, and returns the heap it holds: live bytes after a collection, less
// what was live before the group and the trainer were built. The group is
// closed before returning.
func trainerHeap(t *testing.T, ds *datagen.Dataset, topo *Topology, p float64, newGroup func() *comm.Group) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := newGroup()
	tr, err := NewParallelTrainerOver(ds, topo, ParallelConfig{Model: memModel, P: p, SampleSeed: 7}, g)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 4; e++ {
		tr.TrainEpoch()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	g.Close()
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// memGate bounds the heap the trainers hold at one sampling rate, as a
// multiple of what Eq. 4 (MemoryCost, summed over the partitions) counts for
// the same model at the same p.
type memGate struct{ p, gate float64 }

// checkMemoryScalesWithP is Figure 6 as a gate: on a boundary-heavy partition
// (a random 4-way split, ≈2.4 boundary nodes per inner node — the regime the
// paper samples in), the heap of k=4 trainers over the group newGroup makes
// stays within each gate's multiple of Eq. 4.
func checkMemoryScalesWithP(t *testing.T, newGroup func(k int) *comm.Group, gates []memGate) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the heap; the gates hold without -race")
	}
	const k = 4
	ds, topo := memFixture(t, k)
	model, err := NewModel(memModel, ds.FeatureDim(), ds.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gates {
		var eq4 float64
		for _, c := range topo.MemoryCosts(model.LayerInputDims(), g.p) {
			eq4 += float64(c)
		}
		heap := trainerHeap(t, ds, topo, g.p, func() *comm.Group { return newGroup(k) })
		t.Logf("p=%v: trainer heap %.1f MB, Eq. 4 %.1f MB, %.2f× (gate %.2f×)", g.p, heap/(1<<20), eq4/(1<<20), heap/eq4, g.gate)
		if heap/eq4 > g.gate {
			t.Errorf("p=%v: the trainers hold %.2f× what Eq. 4 counts (%.1f of %.1f MB), want at most %.2f×",
				g.p, heap/eq4, heap/(1<<20), eq4/(1<<20), g.gate)
		}
	}
}

// memFixture is the memory gates' graph and partition: 4,000 nodes split k
// ways at random, ≈2.4 boundary nodes per inner node at k=4.
func memFixture(t *testing.T, k int) (*datagen.Dataset, *Topology) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Name: "mem", Nodes: 4000, Communities: 8, AvgDegree: 24,
		IntraFrac: 0.65, DegreeSkew: 2.0, FeatureDim: 48,
		FeatureSignal: 0.5, FeatureNoise: 1.0,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	return ds, topo
}

// TestTrainerMemoryScalesWithP gates the trainers over the channel cluster.
// The engine measures 2.25–2.26× Eq. 4 at p=1 and 2.22× at p=0.1 at
// GOMAXPROCS 1, 2 and 4: Eq. 4's own rows, the output-wide and gradient
// matrices it leaves out, the partition's static arrays (PERFORMANCE.md,
// "What scales with p", has the table) and the halo payloads in flight. Each
// gate is the largest reading plus 10 %. The layers that kept a
// pre-activation copy of every output and a copy of its gradient measured
// 2.60× and 2.80×, and fail both gates. Before that, it measured 3.45× and
// 3.21× while every payload of an epoch was gathered into the epoch
// workspace and the backward fold copied each layer's inner gradient rows
// out.
//
// The gate used to be the ratio of the two heaps (≤ 0.6). A ratio rewards
// waste in its denominator: dropout's float32 mask, output copy and gradient
// copy were boundary-proportional, the p=1 heap lost more of them than the
// p=0.1 heap did, and the ratio rose 0.50 → 0.56 while both heaps fell by a
// third. Each gate here is absolute, and the engine that held those three
// matrices fails both (5.52 and 4.59). What the ratio was for still holds at
// p=0.1: a buffer per layer that keeps a row for every boundary slot, sampled
// or not, adds 0.6 or more there and fails.
func TestTrainerMemoryScalesWithP(t *testing.T) {
	checkMemoryScalesWithP(t, func(k int) *comm.Group { return comm.New(k, 0) },
		[]memGate{{1, 2.49}, {0.1, 2.45}})
}

// TestTrainerMemoryScalesWithPOverTCP gates the same trainers over a loopback
// TCP mesh, where what the transport stages comes on top — which the channel
// gate cannot see. A halo row is staged once per side: the sender gathers it
// into the outgoing frame and the receiver reads it out of the incoming one.
// Measured 2.59–2.80× at p=1 and 2.40–2.50× at p=0.1 over GOMAXPROCS 1, 2
// and 4; each gate is the largest reading plus 10 %. With the layers' own
// pre-activation and gradient copies it measured 3.04–3.23× and
// 3.08–3.13× (the p=0.1 gate fails them). The transport that also kept the
// gathered payloads in the workspace and decoded every frame into a pooled
// float32 copy measured 4.25–4.45× and 3.65–3.70×, and fails both gates.
func TestTrainerMemoryScalesWithPOverTCP(t *testing.T) {
	checkMemoryScalesWithP(t, func(k int) *comm.Group { return tcpLoopbackGroup(t, k) },
		[]memGate{{1, 3.08}, {0.1, 2.75}})
}

// TestEvaluationHeapFollowsTraining bounds what an evaluation adds to the
// trainers' heap. On the memory gates' fixture, after 4 epochs at p=0.1, the
// live heap the first Evaluate adds (each reading after a collection) stays
// within a multiple of what exact inference must hold beyond training: a
// layer input over the inner rows and every boundary slot, at the widest
// layer input, summed over the ranks. An evaluation's halo frames hold at most
// evalFrameFloats floats, so the transports' pools add a few 64 KB buffers per
// peer on top. Measured over GOMAXPROCS 1, 2 and 4 (some runs beside another
// test binary): 1.16–1.17× over chan and 1.47–1.92× over TCP, whose pools
// stage each frame on both sides; each gate is the largest reading plus 10 %.
// With a peer's whole block in one frame per layer, the pools kept frames
// the size of the largest block and the same test measured 1.53–1.77× and
// 2.45–2.67×, failing both gates.
func TestEvaluationHeapFollowsTraining(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates the heap; the gates hold without -race")
	}
	const k = 4
	ds, topo := memFixture(t, k)
	for _, backend := range []struct {
		name  string
		group func() *comm.Group
		gate  float64
	}{
		{"chan", func() *comm.Group { return comm.New(k, 0) }, 1.29},
		{"tcp", func() *comm.Group { return tcpLoopbackGroup(t, k) }, 2.11},
	} {
		g := backend.group()
		tr, err := NewParallelTrainerOver(ds, topo, ParallelConfig{Model: memModel, P: 0.1, SampleSeed: 7}, g)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 4; e++ {
			tr.TrainEpoch()
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr.Evaluate(ds.TestMask)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tr)
		g.Close()

		input := 0.0 // every rank's p=1 layer input at the widest layer
		for _, rt := range tr.Ranks {
			input += float64((rt.LP.NIn + rt.LP.NBd) * slices.Max(rt.Model.LayerInputDims()) * 4)
		}
		added, gate := float64(after.HeapAlloc)-float64(before.HeapAlloc), backend.gate
		t.Logf("%s: evaluation adds %.1f MB, the p=1 layer input is %.1f MB, %.2f× (gate %.2f×)", backend.name, added/(1<<20), input/(1<<20), added/input, gate)
		if added/input > gate {
			t.Errorf("%s: the first evaluation adds %.2f× the p=1 layer input to the heap (%.1f of %.1f MB), want at most %.2f×",
				backend.name, added/input, added/(1<<20), input/(1<<20), gate)
		}
	}
}
