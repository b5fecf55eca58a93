package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/tensor"
)

// trainingSignature runs 4 epochs and folds the per-epoch losses followed by
// rank 0's final weights into one FNV-64a hash, returning it with the summed
// halo payload bytes. Any numeric or traffic drift — a changed RNG draw, a
// reordered float add, one extra byte on the wire — changes the signature.
func trainingSignature(t *testing.T, tr *ParallelTrainer) (uint64, int64) {
	t.Helper()
	h := fnv.New64a()
	var bytes int64
	var buf [8]byte
	for e := 0; e < 4; e++ {
		st := tr.TrainEpoch()
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(st.Loss))
		h.Write(buf[:])
		bytes += st.CommBytes
	}
	for _, p := range tr.Models[0].Params() {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
			h.Write(buf[:4])
		}
	}
	return h.Sum64(), bytes
}

// TestBNSStrategyGolden pins the strategy-hosted BNS path to signatures
// captured from the pre-Strategy engine (the baked-in sampling loop in
// runEpoch), for both architectures and k ∈ {2, 4}. These constants are the
// refactor's bit-identity proof: if the Strategy extraction ever perturbs the
// RNG stream, the estimator arithmetic, or the wire protocol, this fails.
// They must only be re-captured for an intentional numerics change.
func TestBNSStrategyGolden(t *testing.T) {
	golden := map[Arch]map[int]struct {
		hash      uint64
		commBytes int64
	}{
		ArchSAGE: {
			2: {hash: 0x8fbb542f236902be, commBytes: 116864},
			4: {hash: 0x930a70ead12a10a5, commBytes: 253616},
		},
		ArchGAT: {
			2: {hash: 0x5267982eab5a7a30, commBytes: 116864},
			4: {hash: 0x5b98fb8695488be, commBytes: 253616},
		},
	}
	for _, arch := range []Arch{ArchSAGE, ArchGAT} {
		for _, k := range []int{2, 4} {
			ds := testDataset(t, uint64(70+k))
			topo := testTopology(t, ds, k)
			mc := ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
			cfg := ParallelConfig{Model: mc, P: 0.5, SampleSeed: 17}
			tr, err := NewParallelTrainer(ds, topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			hash, bytes := trainingSignature(t, tr)
			want := golden[arch][k]
			if hash != want.hash {
				t.Errorf("%s k=%d: signature %#x, want pre-refactor %#x", arch, k, hash, want.hash)
			}
			if bytes != want.commBytes {
				t.Errorf("%s k=%d: comm bytes %d, want pre-refactor %d", arch, k, bytes, want.commBytes)
			}
		}
	}
}

// TestLADIESStrategyGolden gives the other hosted strategy the absolute pin
// BNS has above: signatures captured at commit d1685e5, when each strategy
// still wrote its own per-peer position lists, so a change of draw order,
// inclusion probability or derived halo demand fails here and not only
// against itself. Re-capture only for an intentional numerics change.
func TestLADIESStrategyGolden(t *testing.T) {
	golden := map[string]map[Arch]struct {
		hash      uint64
		commBytes int64
	}{
		"ladies": {
			ArchSAGE: {hash: 0xc32c1f2279cd8c0, commBytes: 34320},
			ArchGAT:  {hash: 0x405147d46083d744, commBytes: 34320},
		},
	}
	ds := testDataset(t, 74)
	topo := testTopology(t, ds, 4)
	for name, sc := range stratConfigs {
		for _, arch := range []Arch{ArchSAGE, ArchGAT} {
			mc := ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
			cfg := ParallelConfig{Model: mc, P: 1, SampleSeed: 17, Strategy: sc.Strategy, Budget: sc.Budget}
			tr, err := NewParallelTrainer(ds, topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			hash, bytes := trainingSignature(t, tr)
			if want := golden[name][arch]; hash != want.hash || bytes != want.commBytes {
				t.Errorf("%s %s: signature (%#x, %d bytes), want (%#x, %d bytes)", name, arch, hash, bytes, want.hash, want.commBytes)
			}
		}
	}
}

// TestWideModelGolden pins the widths the benchmark times, which the Hidden-16
// goldens above never reach: SAGE and GAT at 3×64 on reddit-sim features (48
// wide, 32 classes), so the projection, dW and both gathers run 48-, 64- and
// 32-wide rows. Signatures captured before the dense and sparse kernels held
// their output rows in registers; re-capture only for an intentional numerics
// change.
func TestWideModelGolden(t *testing.T) {
	golden := map[Arch]map[int]struct {
		hash      uint64
		commBytes int64
	}{
		ArchSAGE: {
			1: {hash: 0x2db44d8389e02dd8, commBytes: 0},
			4: {hash: 0x40d655ce95ae75fc, commBytes: 14430272},
		},
		ArchGAT: {
			1: {hash: 0x2d3ecdfb75ad3b7c, commBytes: 0},
			4: {hash: 0x5cdb19e7661d017e, commBytes: 14430272},
		},
	}
	ds, err := datagen.Generate(datagen.RedditSim(1, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4} {
		topo := testTopology(t, ds, k)
		for _, arch := range []Arch{ArchSAGE, ArchGAT} {
			mc := ModelConfig{Arch: arch, Layers: 3, Hidden: 64, Dropout: 0.2, LR: 0.01, Seed: 42}
			tr, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: mc, P: 0.5, SampleSeed: 17})
			if err != nil {
				t.Fatal(err)
			}
			hash, bytes := trainingSignature(t, tr)
			if want := golden[arch][k]; hash != want.hash || bytes != want.commBytes {
				t.Errorf("%s k=%d: signature (%#x, %d bytes), want (%#x, %d bytes)", arch, k, hash, bytes, want.hash, want.commBytes)
			}
		}
	}
}

// TestWeightsIndependentOfPoolWidth: a run's losses and trained weights are
// the same bits at every kernel pool width. dW is the one sum a replica makes
// over its own rows before the gradient AllReduce, and it is reduced per
// output row in the serial order whatever the width. Both architectures,
// k ∈ {1, 2}, boundary sampling and dropout on, and more than 256 rows per
// rank — reductions shorter than that were always summed serially.
func TestWeightsIndependentOfPoolWidth(t *testing.T) {
	ds := testDataset(t, 91)
	for _, arch := range []Arch{ArchSAGE, ArchGAT} {
		for _, k := range []int{1, 2} {
			topo := testTopology(t, ds, k)
			mc := ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
			cfg := ParallelConfig{Model: mc, P: 0.5, SampleSeed: 17}
			signature := func(width int) uint64 {
				defer tensor.ForceParallelism(width)()
				tr, err := NewParallelTrainer(ds, topo, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, rt := range tr.Ranks {
					if lp := rt.LP; lp.NIn <= 256 {
						t.Fatalf("fixture has a rank of only %d inner rows", lp.NIn)
					}
				}
				hash, _ := trainingSignature(t, tr)
				return hash
			}
			want := signature(1)
			for _, width := range []int{2, 3, 8} {
				if got := signature(width); got != want {
					t.Errorf("%s k=%d: signature %#x at pool width %d, %#x at width 1", arch, k, got, width, want)
				}
			}
		}
	}
}

// TestMultiLabelGolden pins the sigmoid-BCE path, which the softmax goldens
// above never reach: 4 epochs on the multi-label fixture, SAGE and GAT at
// k=3 with boundary sampling and dropout on. Signatures captured before the
// loss staged its exps through tensor.ExpInPlace; re-capture only for an
// intentional numerics change.
func TestMultiLabelGolden(t *testing.T) {
	golden := map[Arch]struct {
		hash      uint64
		commBytes int64
	}{
		ArchSAGE: {hash: 0x73a6e7da9fb2183a, commBytes: 152064},
		ArchGAT:  {hash: 0x69a8cec8c8ff303a, commBytes: 152064},
	}
	ds := multiLabelDataset(t)
	topo := testTopology(t, ds, 3)
	for _, arch := range []Arch{ArchSAGE, ArchGAT} {
		mc := ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
		tr, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: mc, P: 0.3, SampleSeed: 6})
		if err != nil {
			t.Fatal(err)
		}
		hash, bytes := trainingSignature(t, tr)
		if want := golden[arch]; hash != want.hash || bytes != want.commBytes {
			t.Errorf("%s: signature (%#x, %d bytes), want (%#x, %d bytes)", arch, hash, bytes, want.hash, want.commBytes)
		}
	}
}
