package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
)

// stratFactories enumerates the non-default strategies under test with
// sub-unity sampling (so plans genuinely vary by epoch).
func stratFactories(seed uint64) map[string]StrategyFactory {
	return map[string]StrategyFactory{
		"ladies": NewLADIESFactory(12, seed),
	}
}

// stratSignature folds per-epoch losses and every rank's final weights into
// one hash, alongside the summed halo traffic.
func stratSignature(t *testing.T, tr *ParallelTrainer, epochs int) (uint64, int64) {
	t.Helper()
	h := fnv.New64a()
	var bytes int64
	var buf [8]byte
	for e := 0; e < epochs; e++ {
		st := tr.TrainEpoch()
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(st.Loss))
		h.Write(buf[:])
		bytes += st.CommBytes
	}
	for _, m := range tr.Models {
		for _, p := range m.Params() {
			for _, v := range p.Data {
				binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
				h.Write(buf[:4])
			}
		}
	}
	return h.Sum64(), bytes
}

// TestStrategiesDeterministicAcrossTransports is the new strategies'
// end-to-end determinism proof, mirroring the engine's BNS cross-backend
// test: for LADIES, the same seed must produce bit-identical
// losses, weights, and traffic over TCP as over the channel transport — and
// a different seed must not.
func TestStrategiesDeterministicAcrossTransports(t *testing.T) {
	for name, factory := range stratFactories(21) {
		for _, arch := range []Arch{ArchSAGE, ArchGAT} {
			ds := testDataset(t, 60)
			topo := testTopology(t, ds, 3)
			mc := ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
			cfg := ParallelConfig{Model: mc, P: 1, SampleSeed: 17, Strategy: factory}

			const epochs = 4
			chanTr, err := NewParallelTrainer(ds, topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tcpTr, err := NewParallelTrainerOver(ds, topo, cfg, tcpLoopbackGroup(t, 3))
			if err != nil {
				t.Fatal(err)
			}
			refHash, refBytes := stratSignature(t, chanTr, epochs)
			if h, b := stratSignature(t, tcpTr, epochs); h != refHash || b != refBytes {
				t.Errorf("%s/%s tcp: signature (%#x,%d) != chan (%#x,%d)", name, arch, h, b, refHash, refBytes)
			}

			// Different seed must actually change the run, or the comparison
			// above proves nothing about the sampler.
			other := cfg
			other.Strategy = stratFactories(22)[name]
			otherTr, err := NewParallelTrainer(ds, topo, other)
			if err != nil {
				t.Fatal(err)
			}
			oh, _ := stratSignature(t, otherTr, epochs)
			if oh == refHash {
				t.Errorf("%s/%s: different sampler seed reproduced the same signature", name, arch)
			}
		}
	}
}

// TestStrategyCheckpointResumeEquivalence: for each new strategy, training
// six epochs straight through must be bit-identical to training three,
// checkpointing every rank, loading into fresh trainers, and training the
// remaining three — the strategy state word in the v3 trainer checkpoint is
// what carries the sampler RNG across.
func TestStrategyCheckpointResumeEquivalence(t *testing.T) {
	for name, factory := range stratFactories(31) {
		ds := testDataset(t, 61)
		const k = 2
		const total, pre = 6, 3
		topo := testTopology(t, ds, k)
		mc := ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 5}
		cfg := ParallelConfig{Model: mc, P: 1, SampleSeed: 11, Strategy: factory}

		ref, err := NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refLoss := make([]float64, total)
		for e := 0; e < total; e++ {
			refLoss[e] = ref.TrainEpoch().Loss
		}

		interrupted, err := NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < pre; e++ {
			if got := interrupted.TrainEpoch().Loss; got != refLoss[e] {
				t.Fatalf("%s pre-save epoch %d: loss %.17g != reference %.17g", name, e, got, refLoss[e])
			}
		}
		bufs := make([][]byte, k)
		for r := 0; r < k; r++ {
			bufs[r] = snapshotTrainer(interrupted.Ranks[r]).Encode()
		}
		resumed, err := NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < k; r++ {
			if err := restoreBytes(bufs[r], resumed.Ranks[r]); err != nil {
				t.Fatal(err)
			}
		}
		for e := pre; e < total; e++ {
			if got := resumed.TrainEpoch().Loss; got != refLoss[e] {
				t.Fatalf("%s resumed epoch %d: loss %.17g != reference %.17g", name, e, got, refLoss[e])
			}
		}
		for r := 0; r < k; r++ {
			if d := MaxParamDiff(ref.Models[r], resumed.Models[r]); d != 0 {
				t.Fatalf("%s rank %d: resumed weights diverged by %v", name, r, d)
			}
		}
	}
}

// TestCheckpointRejectsStrategyMismatch: a trainer checkpoint written under
// one sampling strategy must refuse to load into a trainer running another,
// and the error must name both strategies so the operator knows which side
// to change. Silently resuming would switch estimators mid-run. The same holds
// for a strategy this build no longer has: the GraphSAINT checkpoints in
// testdata/parent, written when the engine hosted it, are refused by a BNS
// and a LADIES rank alike, naming "saint".
func TestCheckpointRejectsStrategyMismatch(t *testing.T) {
	ds := testDataset(t, 62)
	topo := testTopology(t, ds, 2)
	mc := ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0, LR: 0.01, Seed: 5}

	mkRank := func(factory StrategyFactory) *RankTrainer {
		t.Helper()
		cfg := ParallelConfig{Model: mc, P: 0.5, SampleSeed: 9, Strategy: factory}
		rt, err := NewRankTrainer(ds, topo, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}

	raw := snapshotTrainer(mkRank(NewLADIESFactory(12, 3))).Encode()

	err := restoreBytes(raw, mkRank(nil)) // nil factory = engine default BNS
	if err == nil {
		t.Fatal("loading a ladies checkpoint into a bns trainer must fail")
	}
	if !strings.Contains(err.Error(), "ladies") || !strings.Contains(err.Error(), "bns") {
		t.Fatalf("mismatch error should name both strategies, got: %v", err)
	}

	// Same strategy still loads.
	if err := restoreBytes(raw, mkRank(NewLADIESFactory(12, 3))); err != nil {
		t.Fatalf("matching strategy failed to load: %v", err)
	}

	// The saint fixtures share TestParentCheckpointsResume's dataset and
	// partition and model, so nothing but the strategy can refuse them.
	pmc := ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 5}
	pds := testDataset(t, 75)
	parts := make([]int32, pds.G.N)
	for v := range parts {
		parts[v] = int32(v % 2)
	}
	ptopo, err := BuildTopology(pds.G, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, running := range []struct {
		name    string
		factory StrategyFactory
	}{{"bns", nil}, {"ladies", NewLADIESFactory(12, 31)}} {
		for r := 0; r < 2; r++ {
			cfg := ParallelConfig{Model: pmc, P: 0.5, SampleSeed: 11, Strategy: running.factory}
			rt, err := NewRankTrainer(pds, ptopo, cfg, r)
			if err != nil {
				t.Fatal(err)
			}
			err = restoreFile(fmt.Sprintf("testdata/parent/parent-saint-r%d.bnst", r), rt)
			if err == nil {
				t.Fatalf("a %s rank %d restored a saint checkpoint", running.name, r)
			}
			if !strings.Contains(err.Error(), "sampling strategy") || !strings.Contains(err.Error(), `"saint"`) || !strings.Contains(err.Error(), running.name) {
				t.Fatalf("%s rank %d: want the strategy-mismatch error naming \"saint\" and %q, got: %v", running.name, r, running.name, err)
			}
		}
	}
}

// TestParentCheckpointsResume: the strategy names and the single RNG state
// word are the on-disk contract. testdata/parent holds both ranks' trainer
// checkpoints after two epochs under each strategy, written by commit d1685e5
// — before the strategies shared a base and stopped writing positions;
// restored here, two more epochs must give the losses and weights of a run
// that never stopped.
func TestParentCheckpointsResume(t *testing.T) {
	ds := testDataset(t, 75)
	const k = 2
	parts := make([]int32, ds.G.N)
	for v := range parts {
		parts[v] = int32(v % k)
	}
	topo, err := BuildTopology(ds.G, parts, k)
	if err != nil {
		t.Fatal(err)
	}
	factories := stratFactories(31)
	factories["bns"] = nil
	for name, factory := range factories {
		mc := ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 5}
		cfg := ParallelConfig{Model: mc, P: 0.5, SampleSeed: 11, Strategy: factory}
		ref, err := NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var refLoss [4]float64
		for e := range refLoss {
			refLoss[e] = ref.TrainEpoch().Loss
		}
		resumed, err := NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r, rt := range resumed.Ranks {
			if err := restoreFile(fmt.Sprintf("testdata/parent/parent-%s-r%d.bnst", name, r), rt); err != nil {
				t.Fatalf("%s rank %d: %v", name, r, err)
			}
		}
		for e := resumed.Epoch(); e < len(refLoss); e++ {
			if got := resumed.TrainEpoch().Loss; got != refLoss[e] {
				t.Fatalf("%s resumed epoch %d: loss %.17g != uninterrupted %.17g", name, e, got, refLoss[e])
			}
		}
		for r := range resumed.Ranks {
			if d := MaxParamDiff(ref.Models[r], resumed.Models[r]); d != 0 {
				t.Fatalf("%s rank %d: resumed weights diverged by %v", name, r, d)
			}
		}
	}
}

// malformedPlan wraps a strategy and breaks its plan after the fact.
type malformedPlan struct {
	Strategy
	spoil func(*Plan)
}

func (s malformedPlan) PlanEpoch(p *Plan) {
	s.Strategy.PlanEpoch(p)
	s.spoil(p)
}

// TestMalformedPlanFailsAtThePlan: a strategy that hands back a per-slot scale
// of the wrong length fails the epoch at the plan with its rank, its name and
// the offending number — not as an index panic inside the drain.
func TestMalformedPlanFailsAtThePlan(t *testing.T) {
	ds := testDataset(t, 8)
	topo := testTopology(t, ds, 2)
	for _, tc := range []struct {
		name  string
		spoil func(*Plan)
		want  string
	}{
		{"short halo scale", func(p *Plan) { p.HaloScale = make([]float32, 3) }, `strategy "bns" planned 3 halo scales for`},
	} {
		tr, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 2,
			Strategy: func(rank int) Strategy { return malformedPlan{NewBNSStrategy(0.5, 2, rank), tc.spoil} }})
		if err != nil {
			t.Fatal(err)
		}
		errs := make([]error, topo.K)
		tr.Cluster.Run(func(w *comm.Worker) {
			_, errs[w.Rank()] = tr.Ranks[w.Rank()].TrainEpoch(w)
		})
		for r, err := range errs {
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), fmt.Sprintf("rank %d:", r)) {
				t.Errorf("%s rank %d: got error %v, want one naming the rank and %q", tc.name, r, err, tc.want)
			}
		}
	}
}
