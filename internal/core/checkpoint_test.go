package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	m1, err := NewModel(testModelConfig(), 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	buf := snapshotModel(m1).Encode()
	cfg2 := testModelConfig()
	cfg2.Seed = 999 // different init, must be overwritten by load
	m2, err := NewModel(cfg2, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	if MaxParamDiff(m1, m2) == 0 {
		t.Fatal("different seeds should differ before load")
	}
	if err := loadWeights(buf, m2); err != nil {
		t.Fatal(err)
	}
	if d := MaxParamDiff(m1, m2); d != 0 {
		t.Fatalf("round trip changed weights by %v", d)
	}
}

func TestCheckpointRejectsArchMismatch(t *testing.T) {
	m1, _ := NewModel(testModelConfig(), 12, 6)
	buf := snapshotModel(m1).Encode()
	gatCfg := ModelConfig{Arch: ArchGAT, Layers: 2, Hidden: 16, LR: 0.01, Seed: 1}
	m2, _ := NewModel(gatCfg, 12, 6)
	if err := loadWeights(buf, m2); err == nil {
		t.Fatal("arch mismatch must error")
	}
}

func TestCheckpointRejectsDimMismatch(t *testing.T) {
	m1, _ := NewModel(testModelConfig(), 12, 6)
	buf := snapshotModel(m1).Encode()
	m2, _ := NewModel(testModelConfig(), 14, 6) // different input dim
	if err := loadWeights(buf, m2); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	m, _ := NewModel(testModelConfig(), 12, 6)
	if err := loadWeights([]byte{1, 2, 3, 4, 5, 6, 7, 8}, m); err == nil {
		t.Fatal("garbage must error")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	m1, _ := NewModel(testModelConfig(), 8, 4)
	path := t.TempDir() + "/model.ckpt"
	if err := SaveCheckpointFile(path, m1); err != nil {
		t.Fatal(err)
	}
	m2, _ := NewModel(testModelConfig(), 8, 4)
	for _, p := range m2.Params() {
		p.Zero()
	}
	c, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadWeights(m2); err != nil {
		t.Fatal(err)
	}
	if MaxParamDiff(m1, m2) != 0 {
		t.Fatal("file round trip changed weights")
	}
}

func TestCheckpointPreservesTrainedModel(t *testing.T) {
	// Save a trained model, load into a fresh one, verify identical logits.
	ds := testDataset(t, 30)
	full, err := NewFullTrainer(ds, testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 10; e++ {
		full.TrainEpoch()
	}
	buf := snapshotModel(full.Model).Encode()
	restored, err := NewFullTrainer(ds, testModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := loadWeights(buf, restored.Model); err != nil {
		t.Fatal(err)
	}
	a := full.Evaluate(ds.TestMask)
	b := restored.Evaluate(ds.TestMask)
	if a != b {
		t.Fatalf("restored model scores %v, original %v", b, a)
	}
}

func TestParamVectorLength(t *testing.T) {
	m, _ := NewModel(testModelConfig(), 12, 6)
	v := m.ParamVector()
	want := 0
	for _, p := range m.Params() {
		want += len(p.Data)
	}
	if len(v) != want {
		t.Fatalf("vector length %d, want %d", len(v), want)
	}
}

// TestTrainerCheckpointResumeEquivalence is the checkpoint satellite's
// acceptance test: training N epochs straight through must be bit-identical
// to training k epochs, saving every rank's full trainer state, loading it
// into freshly constructed trainers, and training the remaining N−k — same
// per-epoch losses, same final weights on every rank. The config exercises
// everything the trainer checkpoint has to carry: dropout on (mask RNG
// streams), p<1 (boundary-sampling RNG), and enough epochs that Adam's
// moments and bias-correction step are far from their initial state.
func TestTrainerCheckpointResumeEquivalence(t *testing.T) {
	ds := testDataset(t, 77)
	const k = 2
	const total, pre = 6, 3
	topo := testTopology(t, ds, k)
	mc := ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 5}
	cfg := ParallelConfig{Model: mc, P: 0.5, SampleSeed: 11}

	// Uninterrupted reference.
	ref, err := NewParallelTrainer(ds, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refLoss := make([]float64, total)
	for e := 0; e < total; e++ {
		refLoss[e] = ref.TrainEpoch().Loss
	}

	// Interrupted run: k epochs, save every rank, resume into fresh
	// trainers (fresh workspaces, fresh transports — only the checkpoint
	// carries state across). Once with both halves at the reference's
	// kernel pool width, and once with the first half at width 1 and the
	// second at 4: a checkpoint written on one box resumes to the same bits
	// on a box with another core count. Every rank's dW reduces over more
	// than 256 rows, past where a reduction was always summed serially.
	atWidth := func(width int, epochs func()) {
		defer tensor.ForceParallelism(width)()
		epochs()
	}
	var interrupted *ParallelTrainer
	for _, widths := range [][2]int{{tensor.Parallelism(), tensor.Parallelism()}, {1, 4}} {
		var err error
		if interrupted, err = NewParallelTrainer(ds, topo, cfg); err != nil {
			t.Fatal(err)
		}
		for _, rt := range interrupted.Ranks {
			if lp := rt.LP; lp.NIn <= 256 {
				t.Fatalf("fixture has a rank of only %d inner rows", lp.NIn)
			}
		}
		atWidth(widths[0], func() {
			for e := 0; e < pre; e++ {
				if got := interrupted.TrainEpoch().Loss; got != refLoss[e] {
					t.Fatalf("widths %v, pre-save epoch %d: loss %.17g != reference %.17g", widths, e, got, refLoss[e])
				}
			}
		})
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
			if got := resumed.Ranks[r].Epoch(); got != pre {
				t.Fatalf("rank %d resumed at epoch %d, want %d", r, got, pre)
			}
		}
		atWidth(widths[1], func() {
			for e := pre; e < total; e++ {
				if got := resumed.TrainEpoch().Loss; got != refLoss[e] {
					t.Fatalf("widths %v, resumed epoch %d: loss %.17g != reference %.17g", widths, e, got, refLoss[e])
				}
			}
		})
		for r := 0; r < k; r++ {
			if d := MaxParamDiff(ref.Models[r], resumed.Models[r]); d != 0 {
				t.Fatalf("widths %v, rank %d: resumed weights diverged by %v", widths, r, d)
			}
		}
	}

	// Control: restoring only the weights into a *fresh* trainer — zeroed
	// Adam moments, bias-correction step back at 0, sampling and dropout
	// RNG streams back at their seeds — is what the old weights-only
	// checkpoint could do, and it must NOT reproduce the reference; if it
	// did, the extra state the trainer format carries would be dead weight
	// and this test vacuous.
	weightsOnly, err := NewParallelTrainer(ds, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < k; r++ {
		wb := snapshotModel(interrupted.Models[r]).Encode()
		if err := loadWeights(wb, weightsOnly.Models[r]); err != nil {
			t.Fatal(err)
		}
	}
	diverged := false
	for e := pre; e < total; e++ {
		if weightsOnly.TrainEpoch().Loss != refLoss[e] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("weights-only restore reproduced the reference run; the resume-equivalence test is not exercising optimizer/RNG state")
	}
}

// TestDropoutDrawsPerEpoch pins where each layer's dropout stream stands:
// every rank starts layer l's stream at the word a fresh model of the seed
// holds, and each training epoch moves it (NIn+NBd)·d_l draws, d_l being the
// layer's input width; an evaluation moves it not at all, nor does any epoch
// at rate 0. The checkpointed word must be that position, and a restore must
// put a fresh trainer there whatever words the file holds, so a rank's
// dropout state at any epoch is known without running it.
func TestDropoutDrawsPerEpoch(t *testing.T) {
	ds := testDataset(t, 64)
	for _, k := range []int{1, 3} {
		topo := testTopology(t, ds, k)
		for _, tc := range []struct {
			name string
			cfg  ParallelConfig
		}{
			{"bns p=0.5", ParallelConfig{P: 0.5}},
			{"ladies budget 12", ParallelConfig{Strategy: LADIES, Budget: 12}},
			{"bns rate 0", ParallelConfig{P: 0.5}},
		} {
			cfg := tc.cfg
			cfg.Model, cfg.SampleSeed = testModelConfig(), 23
			if tc.name != "bns rate 0" {
				cfg.Model.Dropout = 0.3
			}
			fresh, err := NewModel(cfg.Model, ds.FeatureDim(), ds.NumClasses)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := NewParallelTrainer(ds, topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for e := 1; e <= 3; e++ {
				tr.TrainEpoch()
				tr.Evaluate(ds.ValMask)
				for r, rt := range tr.Ranks {
					if k > 1 && rt.LP.NBd == 0 {
						t.Fatalf("k=%d fixture rank %d has no boundary slots", k, r)
					}
					ck := snapshotTrainer(rt)
					got := ck.Resume.Dropouts
					ck.Resume.Dropouts = make([]uint64, len(got)) // not read back
					restored, err := NewRankTrainer(ds, topo, cfg, r)
					if err != nil {
						t.Fatal(err)
					}
					if err := ck.Restore(restored); err != nil {
						t.Fatal(err)
					}
					for l, d := range fresh.Dropouts {
						want := tensor.NewRNG(d.RNGState())
						in := fresh.LayersL[l].(sageLayer).InDim
						if cfg.Model.Dropout != 0 {
							want.Skip(uint64(e * (rt.LP.NIn + rt.LP.NBd) * in))
						}
						if got[l] != want.State() {
							t.Fatalf("k=%d %s rank %d layer %d after epoch %d: stream at %#x, want %#x", k, tc.name, r, l, e, got[l], want.State())
						}
						if rs := restored.Model.Dropouts[l].RNGState(); rs != want.State() {
							t.Fatalf("k=%d %s rank %d layer %d restored at epoch %d: stream at %#x, want %#x", k, tc.name, r, l, e, rs, want.State())
						}
					}
				}
			}
		}
	}
}

// TestRestoredFromAnotherRankTrainsOn: what a restore reads back is the same
// on every rank, so rank r restored from rank r+1's checkpoint — whose
// dropout words stand where rank r+1's row count put them — trains on, with
// evaluations in between, to the losses and weights of a run that never
// stopped.
func TestRestoredFromAnotherRankTrainsOn(t *testing.T) {
	ds := testDataset(t, 64)
	const k, pre, total = 3, 2, 5
	topo := testTopology(t, ds, k)
	for name, sc := range map[string]ParallelConfig{"bns": {P: 0.5}, "ladies": {Strategy: LADIES, Budget: 12}} {
		cfg := sc
		cfg.Model, cfg.SampleSeed = testModelConfig(), 23
		cfg.Model.Dropout = 0.3
		ref, err := NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refLoss := make([]float64, total)
		shard := make([][]byte, k)
		for e := 0; e < total; e++ {
			if e == pre {
				for r, rt := range ref.Ranks {
					shard[r] = snapshotTrainer(rt).Encode()
				}
			}
			refLoss[e] = ref.TrainEpoch().Loss
			ref.Evaluate(ds.ValMask)
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
			if got := resumed.TrainEpoch().Loss; got != refLoss[e] {
				t.Fatalf("%s epoch %d: loss %.17g, the uninterrupted run's %.17g", name, e, got, refLoss[e])
			}
			resumed.Evaluate(ds.ValMask)
		}
		for r := range resumed.Ranks {
			if d := MaxParamDiff(ref.Models[r], resumed.Models[r]); d != 0 {
				t.Fatalf("%s rank %d: restored from rank %d's checkpoint, weights diverged by %v", name, r, (r+1)%k, d)
			}
		}
	}
}

// TestTrainerCheckpointRejects pins the failure modes: weights-only files
// fed to the trainer loader, wrong architecture, and garbage.
func TestTrainerCheckpointRejects(t *testing.T) {
	ds := testDataset(t, 78)
	topo := testTopology(t, ds, 2)
	cfg := ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 3}
	rt, err := NewRankTrainer(ds, topo, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}

	trainerBuf := snapshotTrainer(rt).Encode()
	// One container: the model loader takes the weights out of either kind.
	cfg2 := cfg.Model
	cfg2.Seed = 999
	m2, err := NewModel(cfg2, rt.Model.InDim, rt.Model.OutDim)
	if err != nil {
		t.Fatal(err)
	}
	if err := loadWeights(trainerBuf, m2); err != nil {
		t.Fatalf("model loader rejected a trainer checkpoint's weights: %v", err)
	}
	if d := MaxParamDiff(rt.Model, m2); d != 0 {
		t.Fatalf("weights loaded from a trainer checkpoint differ by %v", d)
	}

	modelBuf := snapshotModel(rt.Model).Encode()
	if err := restoreBytes(modelBuf, rt); err == nil {
		t.Fatal("trainer loader must reject a weights-only checkpoint")
	}

	gatCfg := cfg
	gatCfg.Model = ModelConfig{Arch: ArchGAT, Layers: 2, Hidden: 16, LR: 0.01, Seed: 1}
	gatRT, err := NewRankTrainer(ds, topo, gatCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := restoreBytes(trainerBuf, gatRT); err == nil {
		t.Fatal("trainer loader must reject an architecture mismatch")
	}

	if err := restoreBytes([]byte{1, 2, 3}, rt); err == nil {
		t.Fatal("trainer loader must reject garbage")
	}

	// A rejected file must fail WITHOUT touching live state — whether it is
	// stopped at the frame (truncated) or only by the very last validation
	// against the trainer (intact, other weights, but the last second-moment
	// matrix is transposed): decoded state is never live state.
	otherCfg := cfg
	otherCfg.Model.Seed = 4242
	other, err := NewRankTrainer(ds, topo, otherCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	skewed := snapshotTrainer(other)
	skewed.Resume.Epoch, skewed.Resume.StrategyState = 7, 12345
	v := append([]*tensor.Matrix(nil), skewed.Resume.AdamV...)
	last := v[len(v)-1]
	v[len(v)-1] = &tensor.Matrix{Rows: last.Cols, Cols: last.Rows, Data: last.Data}
	skewed.Resume.AdamV = v
	if _, err := DecodeCheckpoint(skewed.Encode()); err != nil {
		t.Fatalf("the skewed checkpoint must get past the decoder: %v", err)
	}
	rejected := map[string][]byte{
		"truncated":                  trainerBuf[:len(trainerBuf)-7],
		"transposed last adam.v mat": skewed.Encode(),
	}
	for what, b := range rejected {
		before := rt.Model.ParamVector()
		epochBefore := rt.epoch
		if err := restoreBytes(b, rt); err == nil {
			t.Fatalf("trainer loader must reject a %s checkpoint", what)
		}
		after := rt.Model.ParamVector()
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("%s load mutated weight %d: %v -> %v", what, i, before[i], after[i])
			}
		}
		if rt.epoch != epochBefore {
			t.Fatalf("%s load moved the epoch, and with it the sample, to %d", what, rt.epoch)
		}
	}
}

// loadWeights decodes checkpoint bytes of either kind and copies their
// weights into m.
func loadWeights(b []byte, m *Model) error {
	c, err := DecodeCheckpoint(b)
	if err != nil {
		return err
	}
	return c.LoadWeights(m)
}

// restoreBytes decodes trainer checkpoint bytes and restores rt from them:
// validate against rt, then commit (see Checkpoint.Restore).
func restoreBytes(b []byte, rt *RankTrainer) error {
	c, err := DecodeCheckpoint(b)
	if err != nil {
		return err
	}
	return c.Restore(rt)
}

// restoreFile is the file form of restoreBytes, spelled the way
// elastic.LoadGeneration spells it: one read, decode, restore.
func restoreFile(path string, rt *RankTrainer) error {
	c, err := ReadCheckpointFile(path)
	if err != nil {
		return err
	}
	return c.Restore(rt)
}

// TestTrainerCheckpointFileRoundTrip covers the file variants.
func TestTrainerCheckpointFileRoundTrip(t *testing.T) {
	ds := testDataset(t, 79)
	topo := testTopology(t, ds, 2)
	cfg := ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 3}
	rt, err := NewRankTrainer(ds, topo, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt.epoch = 5
	path := t.TempDir() + "/trainer.ckpt"
	if err := SaveTrainerCheckpointFile(path, rt); err != nil {
		t.Fatal(err)
	}
	rt2, err := NewRankTrainer(ds, topo, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := restoreFile(path, rt2); err != nil {
		t.Fatal(err)
	}
	if got, want := snapshotTrainer(rt2).Resume, snapshotTrainer(rt).Resume; got.Epoch != 5 || got.StrategyState != want.StrategyState {
		t.Fatalf("file round trip restored epoch %d, stream %#x; want 5, %#x", got.Epoch, got.StrategyState, want.StrategyState)
	}
	if d := MaxParamDiff(rt.Model, rt2.Model); d != 0 {
		t.Fatalf("file round trip changed weights by %v", d)
	}
}

// TestTrainerCheckpointCorruptionRejected pins the three on-disk failure
// modes a crash mid-save can leave behind — a truncated file, a bit-flipped
// file, and a half-renamed save (only the .tmp exists) — for both kinds of
// checkpoint, and demands every loader and the verify scan reject all of
// them, so recovery falls back a generation and the server refuses to start
// instead of either acting on garbage.
func TestTrainerCheckpointCorruptionRejected(t *testing.T) {
	ds := testDataset(t, 80)
	topo := testTopology(t, ds, 2)
	cfg := ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 3}
	fresh := func() *RankTrainer {
		t.Helper()
		rt, err := NewRankTrainer(ds, topo, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	rt := fresh()
	kinds := []struct {
		name string
		save func(path string) error
		// loaders that must accept the intact file and reject every damaged one
		loaders map[string]func(path string) error
	}{
		{"trainer", func(p string) error { return SaveTrainerCheckpointFile(p, rt) }, map[string]func(string) error{
			"verify":  VerifyTrainerCheckpointFile,
			"restore": func(p string) error { return restoreFile(p, fresh()) },
			"hydrate": func(p string) error { _, err := LoadModelFile(p); return err },
		}},
		{"weights-only", func(p string) error { return SaveCheckpointFile(p, rt.Model) }, map[string]func(string) error{
			"hydrate": func(p string) error { _, err := LoadModelFile(p); return err },
			"load": func(p string) error {
				b, err := os.ReadFile(p)
				if err != nil {
					return err
				}
				return loadWeights(b, fresh().Model)
			},
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			dir := t.TempDir()
			good := dir + "/good.bnst"
			if err := kind.save(good); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(good)
			if err != nil {
				t.Fatal(err)
			}
			// Single bit flip in the middle of the weight data: every shape and
			// length still parses, only the checksum can catch it.
			flipped := append([]byte(nil), raw...)
			flipped[len(flipped)/2] ^= 0x10
			damaged := map[string][]byte{
				// Cut deep inside the last matrix, far from any length word.
				"truncated":   raw[:len(raw)-100],
				"bit-flipped": flipped,
				// The crash happened between writing the .tmp and the rename, so
				// the final name never appeared; nothing may see the orphan.
				"half-renamed.tmp": raw,
			}
			for what, data := range damaged {
				if err := os.WriteFile(dir+"/"+what, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for name, load := range kind.loaders {
				if err := load(good); err != nil {
					t.Fatalf("%s rejected the intact checkpoint: %v", name, err)
				}
				for _, what := range []string{"truncated", "bit-flipped", "half-renamed"} {
					if err := load(dir + "/" + what); err == nil {
						t.Fatalf("%s accepted a %s checkpoint", name, what)
					}
				}
			}
		})
	}
	// The generation scan must not mistake a weights-only file for a shard.
	weights := t.TempDir() + "/w.bnst"
	if err := SaveCheckpointFile(weights, rt.Model); err != nil {
		t.Fatal(err)
	}
	if err := VerifyTrainerCheckpointFile(weights); err == nil {
		t.Fatal("verify accepted a weights-only file as a trainer checkpoint")
	}
}

// TestTrainerCheckpointSaveIsAtomic: an existing checkpoint under the final
// name must survive a failed re-save untouched (the write happens in a .tmp
// that only replaces it on success).
func TestTrainerCheckpointSaveIsAtomic(t *testing.T) {
	ds := testDataset(t, 81)
	topo := testTopology(t, ds, 2)
	cfg := ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 3}
	rt, err := NewRankTrainer(ds, topo, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/ckpt.bnst"
	if err := SaveTrainerCheckpointFile(path, rt); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Force the tmp create to fail: a directory is squatting on the name.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveTrainerCheckpointFile(path, rt); err == nil {
		t.Fatal("save over a blocked tmp path should fail")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed re-save corrupted the existing checkpoint")
	}
	if err := VerifyTrainerCheckpointFile(path); err != nil {
		t.Fatalf("existing checkpoint no longer verifies: %v", err)
	}
}

// TestModelHydrationFromCheckpoints pins the serving-side loader: a model
// rebuilt from either checkpoint kind's header alone — no pre-built model,
// dataset, or optimizer — must carry bit-identical weights to the source.
func TestModelHydrationFromCheckpoints(t *testing.T) {
	ds := testDataset(t, 82)
	topo := testTopology(t, ds, 2)
	cfg := ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 3}
	rt, err := NewRankTrainer(ds, topo, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	weights := dir + "/model.bnsc"
	if err := SaveCheckpointFile(weights, rt.Model); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModelFile(weights)
	if err != nil {
		t.Fatal(err)
	}
	if m.Config.Arch != rt.Model.Config.Arch || m.InDim != rt.Model.InDim || m.OutDim != rt.Model.OutDim {
		t.Fatalf("hydrated model is %s/%d->%d, source is %s/%d->%d",
			m.Config.Arch, m.InDim, m.OutDim, rt.Model.Config.Arch, rt.Model.InDim, rt.Model.OutDim)
	}
	if d := MaxParamDiff(rt.Model, m); d != 0 {
		t.Fatalf("weights-only hydration changed weights by %v", d)
	}

	trainer := dir + "/trainer.bnst"
	if err := SaveTrainerCheckpointFile(trainer, rt); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModelFile(trainer)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxParamDiff(rt.Model, m2); d != 0 {
		t.Fatalf("trainer-format hydration changed weights by %v", d)
	}
}

// TestModelHydrationRejectsCorruption: the serving loader must reject a
// damaged trainer checkpoint even though it discards the damaged sections —
// the trailing CRC covers the whole stream.
func TestModelHydrationRejectsCorruption(t *testing.T) {
	ds := testDataset(t, 83)
	topo := testTopology(t, ds, 2)
	cfg := ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 3}
	rt, err := NewRankTrainer(ds, topo, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := dir + "/good.bnst"
	if err := SaveTrainerCheckpointFile(good, rt); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	// Bit flip deep in the optimizer section (last quarter of the file):
	// hydration discards those bytes, but must still notice them.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)-64] ^= 0x01
	flip := dir + "/flip.bnst"
	if err := os.WriteFile(flip, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(flip); err == nil {
		t.Fatal("hydration accepted a checkpoint with a corrupt optimizer section")
	}

	trunc := dir + "/trunc.bnst"
	if err := os.WriteFile(trunc, raw[:len(raw)-100], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(trunc); err == nil {
		t.Fatal("hydration accepted a truncated checkpoint")
	}

	junk := dir + "/junk.bin"
	if err := os.WriteFile(junk, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(junk); err == nil {
		t.Fatal("hydration accepted garbage")
	}
}

// TestCheckpointSaveSyncsDirAfterRename pins the durability sequence of both
// save paths: file fsync before the rename, then a directory fsync AFTER the
// rename. Without the trailing directory sync a crash can lose the rename
// itself — the newest generation vanishes even though the save returned.
func TestCheckpointSaveSyncsDirAfterRename(t *testing.T) {
	ds := testDataset(t, 84)
	topo := testTopology(t, ds, 2)
	cfg := ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 3}
	rt, err := NewRankTrainer(ds, topo, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var steps []string
	fsyncHook = func(step, path string) { steps = append(steps, step) }
	defer func() { fsyncHook = nil }()

	dir := t.TempDir()
	want := []string{"sync-file", "rename", "sync-dir"}

	steps = nil
	if err := SaveTrainerCheckpointFile(dir+"/t.bnst", rt); err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(want) {
		t.Fatalf("trainer save durability steps = %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("trainer save durability steps = %v, want %v", steps, want)
		}
	}

	steps = nil
	if err := SaveCheckpointFile(dir+"/m.bnsc", rt.Model); err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(want) {
		t.Fatalf("model save durability steps = %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("model save durability steps = %v, want %v", steps, want)
		}
	}
}

// reseal recomputes the trailing CRC over body (a checkpoint without its
// last four bytes), so a damaged header reaches the parser instead of being
// stopped by the frame check — what a forger, not an accident, produces.
func reseal(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// patchWord overwrites the u64 at off and reseals.
func patchWord(raw []byte, off int, v uint64) []byte {
	body := append([]byte(nil), raw[:len(raw)-4]...)
	binary.LittleEndian.PutUint64(body[off:], v)
	return reseal(body)
}

// Header word offsets of a checkpoint whose arch is "sage" or "gat ": 12
// frame bytes, the arch string (8 + len), then layers and hidden.
func layersOff(arch Arch) int { return 12 + 8 + len(arch) }
func hiddenOff(arch Arch) int { return layersOff(arch) + 8 }

// allocatedBy reports the heap bytes fn allocated (live or not).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointRejectsForgedHeader: a header is believed only as far as the
// bytes behind it. At the parent commit the first two cases sent model
// hydration into a 2^40-iteration allocation loop, resp. a 2^40-float
// make(), because layers/hidden went straight from the file to NewModel; and
// the weights-only format had no CRC, so the bit flip of the last case was
// served.
func TestCheckpointRejectsForgedHeader(t *testing.T) {
	ds := testDataset(t, 85)
	topo := testTopology(t, ds, 2)
	rt, err := NewRankTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	arch := rt.Model.Config.Arch
	kinds := map[string][]byte{
		"weights-only": snapshotModel(rt.Model).Encode(),
		"trainer":      snapshotTrainer(rt).Encode(),
	}
	for kind, raw := range kinds {
		forged := map[string][]byte{
			"layers=2^40+3":          patchWord(raw, layersOff(arch), 1<<40+3),
			"hidden=2^40":            patchWord(raw, hiddenOff(arch), 1<<40),
			"layers=1024 (in range)": patchWord(raw, layersOff(arch), maxCkptLayers),
			"hidden=2^24 (in range)": patchWord(raw, hiddenOff(arch), maxCkptDim),
			"layers=1 (fits, wrong)": patchWord(raw, layersOff(arch), 1),
		}
		for name, b := range forged {
			if _, _, err := checkFrame(b); err != nil {
				t.Fatalf("%s %s: forged file should pass the frame check: %v", kind, name, err)
			}
			var m *Model
			var err error
			grew := allocatedBy(func() {
				var c *Checkpoint
				if c, err = DecodeCheckpoint(b); err == nil {
					m, err = c.Model()
				}
			})
			if err == nil {
				t.Fatalf("%s %s: hydration built a %d-layer model from a forged header", kind, name, m.Config.Layers)
			}
			// Nothing may scale with what the header claims.
			if limit := uint64(16*len(b) + 64<<10); grew > limit {
				t.Fatalf("%s %s: rejecting a %d-byte file allocated %d bytes (limit %d)", kind, name, len(b), grew, limit)
			}
			if kind == "trainer" {
				if err := restoreBytes(b, rt); err == nil {
					t.Fatalf("%s: resume accepted a forged header", name)
				}
			}
		}
	}

	// An accident, not a forgery: one flipped bit in the layers word of a
	// weights-only file, CRC left alone.
	flipped := append([]byte(nil), kinds["weights-only"]...)
	flipped[layersOff(arch)+5] ^= 0x01 // layers += 2^40
	path := t.TempDir() + "/flipped.bnsc"
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(path); err == nil {
		t.Fatal("LoadModelFile accepted a weights-only file with a flipped header bit")
	}
}

// fuzzSeeds builds the seed inputs of FuzzCheckpointDecode (the committed
// corpus under testdata/fuzz/FuzzCheckpointDecode is this map written out):
// valid SAGE and GAT trainer files, a valid weights-only file, every one of
// them cut at each section boundary and resealed so the parser — not the
// frame check — meets the truncation, and the forged headers above. The
// models are tiny (3→2→2) to keep the corpus small.
func fuzzSeeds() map[string][]byte {
	seeds := map[string][]byte{}
	for _, arch := range []Arch{ArchSAGE, ArchGAT} {
		m, err := NewModel(ModelConfig{Arch: arch, Layers: 2, Hidden: 2, Dropout: 0.3, LR: 0.01, Seed: 9}, 3, 2)
		if err != nil {
			panic(err)
		}
		trainer := snapshotModel(m)
		trainer.Resume = &ResumeState{
			Epoch: 3, Strategy: "bns", StrategyState: 0x9e3779b97f4a7c15,
			Dropouts: []uint64{11, 12}, AdamStep: 3,
			AdamM: m.Grads(), AdamV: m.Params(), // any matrices of the right shapes
		}
		valid := map[string]*Checkpoint{string(arch) + "-trainer": trainer}
		if arch == ArchSAGE {
			valid["sage-weights"] = snapshotModel(m)
		}
		for name, c := range valid {
			raw := c.Encode()
			seeds[name] = raw
			for i, end := range sectionEnds(c) {
				seeds[fmt.Sprintf("%s-cut%02d", name, i)] = reseal(raw[:end])
			}
			seeds[name+"-layers-2p40"] = patchWord(raw, layersOff(arch), 1<<40+3)
			seeds[name+"-hidden-2p40"] = patchWord(raw, hiddenOff(arch), 1<<40)
			seeds[name+"-layers-1"] = patchWord(raw, layersOff(arch), 1)
		}
	}
	return seeds
}

// sectionEnds restates the container layout independently of Encode: the
// offset at which each field or matrix of c's encoding ends, short of the
// last (which is the whole body).
func sectionEnds(c *Checkpoint) []int {
	off := 12 // magic, version, kind
	ends := []int{off}
	add := func(n int) {
		off += n
		ends = append(ends, off)
	}
	mats := func(ms []*tensor.Matrix) {
		for _, m := range ms {
			add(16 + 4*len(m.Data))
		}
	}
	add(8 + len(c.Arch))
	add(4 * 8) // layers, hidden, inDim, outDim
	add(8)     // nParams
	mats(c.Params)
	if rs := c.Resume; rs != nil {
		add(8) // epoch
		add(8 + len(rs.Strategy))
		add(8) // strategy state
		add(8 + 8*len(rs.Dropouts))
		add(8) // adam step
		mats(rs.AdamM)
		mats(rs.AdamV)
	}
	return ends[:len(ends)-1]
}

// FuzzCheckpointDecode: whatever the bytes, decoding never panics and never
// allocates beyond a small multiple of the input; bytes that decode are the
// canonical encoding of what they decode to (so decode∘encode is the
// identity on checkpoints); and building the model a decoded header
// describes never panics either, at a cost linear in the input — a layer's
// ~1.2 KB of bookkeeping against the ≥ 4 file bytes the decoder made the
// header pay for it.
func FuzzCheckpointDecode(f *testing.F) {
	for _, b := range fuzzSeeds() {
		f.Add(b)
	}
	check := func(t *testing.T, b []byte) {
		var c *Checkpoint
		var err error
		if grew, limit := allocatedBy(func() { c, err = DecodeCheckpoint(b) }), uint64(8*len(b)+64<<10); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(b), grew, limit)
		}
		if err != nil {
			return
		}
		if again := c.Encode(); !bytes.Equal(again, b) {
			t.Fatalf("decoded checkpoint re-encodes to %d different bytes (input %d)", len(again), len(b))
		}
		if grew, limit := allocatedBy(func() { c.Model() }), uint64(512*len(b)+1<<20); grew > limit {
			t.Fatalf("building the model of a %d-byte checkpoint allocated %d (limit %d)", len(b), grew, limit)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		check(t, b) // as found: an accident, which the frame check stops
		if len(b) >= 4 {
			check(t, reseal(b[:len(b)-4])) // resealed: a forgery, which reaches the parser
		}
	})
}

// TestCheckpointEncodeDecodeIdentity runs the fuzz seeds' valid files through
// the round trip field by field, so the property does not rest on Encode
// being its own judge.
func TestCheckpointEncodeDecodeIdentity(t *testing.T) {
	for name, b := range fuzzSeeds() {
		c, err := DecodeCheckpoint(b)
		if strings.Contains(name, "-cut") || strings.Contains(name, "2p40") {
			if err == nil {
				t.Fatalf("%s decoded", name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := DecodeCheckpoint(c.Encode())
		if err != nil {
			t.Fatalf("%s: re-decode: %v", name, err)
		}
		if !reflect.DeepEqual(c, back) {
			t.Fatalf("%s: decode(encode(c)) != c", name)
		}
	}
}

// BenchmarkCheckpoint measures what PERFORMANCE.md's elastic section quotes:
// one rank's shard at reddit-sim scale (4x32 SAGE), saved durably, loaded
// into a fresh trainer, and frame-verified.
func BenchmarkCheckpoint(b *testing.B) {
	ds, err := datagen.Generate(datagen.RedditSim(2, 1))
	if err != nil {
		b.Fatal(err)
	}
	topo := testTopology(b, ds, 4)
	cfg := ParallelConfig{Model: ModelConfig{Arch: ArchSAGE, Layers: 4, Hidden: 32, Dropout: 0.5, LR: 0.01, Seed: 1}, P: 0.1, SampleSeed: 1}
	rt, err := NewRankTrainer(ds, topo, cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/shard.bnst"
	if err := SaveTrainerCheckpointFile(path, rt); err != nil {
		b.Fatal(err)
	}
	if st, err := os.Stat(path); err == nil {
		b.Logf("shard is %d bytes", st.Size())
	}
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := SaveTrainerCheckpointFile(path, rt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := restoreFile(path, rt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := VerifyTrainerCheckpointFile(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}
