package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// stratConfigs enumerates the non-default samplers under test, as the config
// fields that select them, with sub-unity sampling (so plans genuinely vary
// by epoch).
var stratConfigs = map[string]ParallelConfig{
	"ladies": {Strategy: LADIES, Budget: 12},
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
	for name, sc := range stratConfigs {
		for _, arch := range []Arch{ArchSAGE, ArchGAT} {
			ds := testDataset(t, 60)
			topo := testTopology(t, ds, 3)
			mc := ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
			cfg := ParallelConfig{Model: mc, P: 1, SampleSeed: 21, Strategy: sc.Strategy, Budget: sc.Budget}

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
			other.SampleSeed = 22
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
// remaining three — the restored epoch count is what carries the sample
// across (the stream word beside it is derived from it).
func TestStrategyCheckpointResumeEquivalence(t *testing.T) {
	for name, sc := range stratConfigs {
		ds := testDataset(t, 61)
		const k = 2
		const total, pre = 6, 3
		topo := testTopology(t, ds, k)
		mc := ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 5}
		cfg := ParallelConfig{Model: mc, P: 1, SampleSeed: 31, Strategy: sc.Strategy, Budget: sc.Budget}

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

	mkRank := func(strategy Strategy) *RankTrainer {
		t.Helper()
		cfg := ParallelConfig{Model: mc, P: 0.5, SampleSeed: 9, Strategy: strategy, Budget: 12}
		rt, err := NewRankTrainer(ds, topo, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}

	raw := snapshotTrainer(mkRank(LADIES)).Encode()

	err := restoreBytes(raw, mkRank(BNS))
	if err == nil {
		t.Fatal("loading a ladies checkpoint into a bns trainer must fail")
	}
	if !strings.Contains(err.Error(), "ladies") || !strings.Contains(err.Error(), "bns") {
		t.Fatalf("mismatch error should name both strategies, got: %v", err)
	}

	// Same strategy still loads.
	if err := restoreBytes(raw, mkRank(LADIES)); err != nil {
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
	for _, running := range []Strategy{BNS, LADIES} {
		for r := 0; r < 2; r++ {
			cfg := ParallelConfig{Model: pmc, P: 0.5, SampleSeed: 11, Strategy: running, Budget: 12}
			rt, err := NewRankTrainer(pds, ptopo, cfg, r)
			if err != nil {
				t.Fatal(err)
			}
			err = restoreFile(fmt.Sprintf("testdata/parent/parent-saint-r%d.bnst", r), rt)
			if err == nil {
				t.Fatalf("a %s rank %d restored a saint checkpoint", running, r)
			}
			if !strings.Contains(err.Error(), "sampling strategy") || !strings.Contains(err.Error(), `"saint"`) || !strings.Contains(err.Error(), running.String()) {
				t.Fatalf("%s rank %d: want the strategy-mismatch error naming \"saint\" and %q, got: %v", running, r, running, err)
			}
		}
	}
}

// TestParentCheckpointsResume: the strategy names and the single RNG state
// word are the on-disk contract. testdata/parent holds both ranks' trainer
// checkpoints after two epochs under each strategy, written by commit d1685e5
// — before the strategies shared a base and stopped writing positions, when
// LADIES had a seed of its own (31, which the LADIES case passes as
// SampleSeed); restored here, two more epochs must give the losses and
// weights of a run that never stopped.
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
	for name, sampler := range map[string]ParallelConfig{
		"bns":    {P: 0.5, SampleSeed: 11},
		"ladies": {P: 0.5, SampleSeed: 31, Strategy: LADIES, Budget: 12},
	} {
		cfg := sampler
		cfg.Model = ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 5}
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

// TestSamplerDrawsPerEpoch pins how far an epoch moves each rank's sampling
// stream: one draw per boundary slot whenever anything is drawn (BNS at
// 0 < p < 1, LADIES at any budget, 0 included), none for BNS at p=0 and p=1,
// and none for an evaluation. After e epochs the stream word a checkpoint
// stores — the on-disk contract — must be where a fresh stream of the rank's
// seed stands after e·draws steps, so the stream state of any rank at any
// epoch is known without running it.
func TestSamplerDrawsPerEpoch(t *testing.T) {
	ds := testDataset(t, 64)
	topo := testTopology(t, ds, 3)
	for _, tc := range []struct {
		name     string
		cfg      ParallelConfig
		drawsAll bool // NBd draws per epoch, else none
	}{
		{"bns p=0.5", ParallelConfig{P: 0.5}, true},
		{"bns p=0", ParallelConfig{P: 0}, false},
		{"bns p=1", ParallelConfig{P: 1}, false},
		{"ladies budget 12", ParallelConfig{Strategy: LADIES, Budget: 12}, true},
		{"ladies budget 0", ParallelConfig{Strategy: LADIES}, true},
	} {
		cfg := tc.cfg
		cfg.Model, cfg.SampleSeed = testModelConfig(), 23
		tr, err := NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for e := 1; e <= 3; e++ {
			tr.TrainEpoch()
			tr.Evaluate(ds.ValMask)
			for r, rt := range tr.Ranks {
				if rt.LP.NBd == 0 {
					t.Fatalf("fixture rank %d has no boundary slots", r)
				}
				draws := 0
				if tc.drawsAll {
					draws = rt.LP.NBd
				}
				want := tensor.NewRNG(cfg.SampleSeed + uint64(r)*0x9e3779b9)
				want.Skip(uint64(e * draws))
				if got := snapshotTrainer(rt).Resume.StrategyState; got != want.State() {
					t.Fatalf("%s rank %d after epoch %d: stream at %#x, want %#x (%d draws per epoch)", tc.name, r, e, got, want.State(), draws)
				}
			}
		}
	}
}

// TestRestoredRankSamplesItsOwnSlots: a rank's sample is a function of its
// rank and the epoch, so a rank restored from another slot's shard — whose
// stream word names the donor's stream — samples, at every later epoch,
// exactly the slots the same rank of an uninterrupted run samples.
func TestRestoredRankSamplesItsOwnSlots(t *testing.T) {
	ds := testDataset(t, 64)
	const k, pre, total = 3, 2, 6
	topo := testTopology(t, ds, k)
	for name, sc := range map[string]ParallelConfig{"bns": {P: 0.5}, "ladies": {Strategy: LADIES, Budget: 12}} {
		cfg := sc
		cfg.Model, cfg.SampleSeed = testModelConfig(), 23
		ref, err := NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var refActive [][][]bool // per epoch, per rank
		shard := make([][]byte, k)
		for e := 0; e < total; e++ {
			if e == pre {
				for r, rt := range ref.Ranks {
					shard[r] = snapshotTrainer(rt).Encode()
				}
			}
			ref.TrainEpoch()
			var act [][]bool
			for _, rt := range ref.Ranks {
				act = append(act, slices.Clone(rt.LP.active))
			}
			refActive = append(refActive, act)
		}
		resumed, err := NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r, rt := range resumed.Ranks {
			if err := restoreBytes(shard[(r+1)%k], rt); err != nil {
				t.Fatal(err)
			}
		}
		for e := pre; e < total; e++ {
			resumed.TrainEpoch()
			for r, rt := range resumed.Ranks {
				if !slices.Equal(rt.LP.active, refActive[e][r]) {
					t.Fatalf("%s rank %d epoch %d: restored from slot %d's shard, it sampled other slots than the uninterrupted run", name, r, e, (r+1)%k)
				}
			}
		}
	}
}

// TestNewRankTrainerRejectsBadSampler: a sampler the config cannot name, a
// negative budget and a rate outside [0,1] (NaN included, which every
// comparison lets through) are configuration errors, reported by the
// constructor rather than trained as something else.
func TestNewRankTrainerRejectsBadSampler(t *testing.T) {
	ds := testDataset(t, 10)
	topo := testTopology(t, ds, 2)
	for _, tc := range []struct {
		name string
		cfg  ParallelConfig
		want string
	}{
		{"unknown strategy", ParallelConfig{P: 0.5, Strategy: LADIES + 1}, "unknown sampling strategy Strategy(2)"},
		{"negative strategy", ParallelConfig{P: 0.5, Strategy: -1}, "unknown sampling strategy Strategy(-1)"},
		{"negative budget", ParallelConfig{Strategy: LADIES, Budget: -1}, "sampling budget -1 is negative"},
		{"negative budget under bns", ParallelConfig{P: 0.5, Budget: -3}, "sampling budget -3 is negative"},
		{"nan rate", ParallelConfig{P: math.NaN()}, "sampling rate p=NaN outside [0,1]"},
	} {
		tc.cfg.Model = testModelConfig()
		if _, err := NewRankTrainer(ds, topo, tc.cfg, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
