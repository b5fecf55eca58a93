package sampling

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// stratFactories enumerates the non-default strategies under test with
// sub-unity sampling (so plans genuinely vary by epoch).
func stratFactories(seed uint64) map[string]StrategyFactory {
	return map[string]StrategyFactory{
		"ladies": NewLADIESFactory(12, seed),
		"saint":  NewSAINTFactory(0.6, seed),
	}
}

func tcpGroup(t testing.TB, k int) *comm.Group {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]comm.Transport, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := comm.TCPConfig{Rank: r, World: k, Rendezvous: ln.Addr().String(), Timeout: 10 * time.Second}
			if r == 0 {
				cfg.RendezvousListener = ln
			}
			ts[r], errs[r] = comm.DialTCP(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	g := comm.NewGroup(ts)
	t.Cleanup(func() { g.Close() })
	return g
}

// stratSignature folds per-epoch losses and every rank's final weights into
// one hash, alongside the summed halo traffic.
func stratSignature(t *testing.T, tr *core.ParallelTrainer, epochs int) (uint64, int64) {
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

// TestStrategiesDeterministicAcrossSchedulesAndTransports is the new
// strategies' end-to-end determinism proof, mirroring the engine's BNS
// equivalence matrix: for LADIES and SAINT, the same seed must produce
// bit-identical losses, weights, and traffic under both schedules over the
// channel transport and under the overlapped schedule over TCP — and a
// different seed must not.
func TestStrategiesDeterministicAcrossSchedulesAndTransports(t *testing.T) {
	for name, factory := range stratFactories(21) {
		for _, arch := range []core.Arch{core.ArchSAGE, core.ArchGAT} {
			ds := testDataset(t, 60)
			topo := buildTopo(t, ds, 3)
			mc := core.ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
			base := core.ParallelConfig{Model: mc, P: 1, SampleSeed: 17, Schedule: core.ScheduleSerialized, Strategy: factory}

			mk := func(sched core.Schedule, g *comm.Group) *core.ParallelTrainer {
				t.Helper()
				cfg := base
				cfg.Schedule = sched
				var tr *core.ParallelTrainer
				var err error
				if g == nil {
					tr, err = core.NewParallelTrainer(ds, topo, cfg)
				} else {
					tr, err = core.NewParallelTrainerOver(ds, topo, cfg, g)
				}
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}

			const epochs = 4
			refHash, refBytes := stratSignature(t, mk(core.ScheduleSerialized, nil), epochs)
			runs := map[string]*core.ParallelTrainer{
				"chan/overlap": mk(core.ScheduleOverlap, nil),
				"tcp/overlap":  mk(core.ScheduleOverlap, tcpGroup(t, 3)),
			}
			for rn, tr := range runs {
				h, b := stratSignature(t, tr, epochs)
				if h != refHash || b != refBytes {
					t.Errorf("%s/%s %s: signature (%#x,%d) != serialized (%#x,%d)", name, arch, rn, h, b, refHash, refBytes)
				}
			}

			// Different seed must actually change the run, or the matrix above
			// proves nothing about the sampler.
			other := base
			other.Strategy = stratFactories(22)[name]
			otherTr, err := core.NewParallelTrainer(ds, topo, other)
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
		topo := buildTopo(t, ds, k)
		mc := core.ModelConfig{Arch: core.ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 5}
		cfg := core.ParallelConfig{Model: mc, P: 1, SampleSeed: 11, Strategy: factory}

		ref, err := core.NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refLoss := make([]float64, total)
		for e := 0; e < total; e++ {
			refLoss[e] = ref.TrainEpoch().Loss
		}

		interrupted, err := core.NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < pre; e++ {
			if got := interrupted.TrainEpoch().Loss; got != refLoss[e] {
				t.Fatalf("%s pre-save epoch %d: loss %.17g != reference %.17g", name, e, got, refLoss[e])
			}
		}
		bufs := make([]bytes.Buffer, k)
		for r := 0; r < k; r++ {
			if err := core.SaveTrainerCheckpoint(&bufs[r], interrupted.Ranks[r]); err != nil {
				t.Fatal(err)
			}
		}
		resumed, err := core.NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < k; r++ {
			if err := core.LoadTrainerCheckpoint(&bufs[r], resumed.Ranks[r]); err != nil {
				t.Fatal(err)
			}
		}
		for e := pre; e < total; e++ {
			if got := resumed.TrainEpoch().Loss; got != refLoss[e] {
				t.Fatalf("%s resumed epoch %d: loss %.17g != reference %.17g", name, e, got, refLoss[e])
			}
		}
		for r := 0; r < k; r++ {
			if d := core.MaxParamDiff(ref.Models[r], resumed.Models[r]); d != 0 {
				t.Fatalf("%s rank %d: resumed weights diverged by %v", name, r, d)
			}
		}
	}
}

// TestCheckpointRejectsStrategyMismatch: a trainer checkpoint written under
// one sampling strategy must refuse to load into a trainer running another,
// and the error must name both strategies so the operator knows which side
// to change. Silently resuming would switch estimators mid-run.
func TestCheckpointRejectsStrategyMismatch(t *testing.T) {
	ds := testDataset(t, 62)
	topo := buildTopo(t, ds, 2)
	mc := core.ModelConfig{Arch: core.ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0, LR: 0.01, Seed: 5}

	mkRank := func(factory StrategyFactory) *core.RankTrainer {
		t.Helper()
		cfg := core.ParallelConfig{Model: mc, P: 0.5, SampleSeed: 9, Strategy: factory}
		rt, err := core.NewRankTrainer(ds, topo, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}

	var buf bytes.Buffer
	if err := core.SaveTrainerCheckpoint(&buf, mkRank(NewLADIESFactory(12, 3))); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	for _, wrong := range []struct {
		name    string
		factory StrategyFactory
	}{
		{"bns", nil}, // nil factory = engine default BNS
		{"saint", NewSAINTFactory(0.6, 3)},
	} {
		err := core.LoadTrainerCheckpoint(bytes.NewReader(raw), mkRank(wrong.factory))
		if err == nil {
			t.Fatalf("loading a ladies checkpoint into a %s trainer must fail", wrong.name)
		}
		if !strings.Contains(err.Error(), "ladies") || !strings.Contains(err.Error(), wrong.name) {
			t.Fatalf("mismatch error should name both strategies, got: %v", err)
		}
	}

	// Same strategy still loads.
	if err := core.LoadTrainerCheckpoint(bytes.NewReader(raw), mkRank(NewLADIESFactory(12, 3))); err != nil {
		t.Fatalf("matching strategy failed to load: %v", err)
	}
}

// TestSamplerStateMidEpochResume: capturing State() mid-epoch and installing
// it on a freshly built sampler must reproduce the original's remaining
// batch stream exactly — including the rest of the current epoch's shuffle
// order for the reshuffling samplers, not just the next epoch.
func TestSamplerStateMidEpochResume(t *testing.T) {
	ds := testDataset(t, 63)
	parts := make([]int32, ds.G.N)
	for v := range parts {
		parts[v] = int32(v % 8)
	}
	build := func() []Sampler {
		cs, err := NewClusterGCNSampler(ds.G, ds.TrainMask, parts, 8, 2, 9)
		if err != nil {
			t.Fatal(err)
		}
		return []Sampler{
			NewNeighborSampler(ds.G, ds.TrainMask, 32, 5, 2, 9),
			NewFastGCNSampler(ds.G, ds.TrainMask, 32, 64, 9),
			NewLADIESSampler(ds.G, ds.TrainMask, 32, 64, 2, 9),
			cs,
			NewGraphSAINTSampler(ds.G, ds.TrainMask, SAINTWalk, 100, 4, 9),
		}
	}
	orig := build()
	for i, s := range orig {
		// Advance into the middle of an epoch (and past one reshuffle).
		steps := s.BatchesPerEpoch() + s.BatchesPerEpoch()/2
		if steps < 3 {
			steps = 3
		}
		for j := 0; j < steps; j++ {
			s.Sample()
		}
		st := s.State()
		clone := build()[i]
		clone.SetState(st)
		for j := 0; j < s.BatchesPerEpoch()+2; j++ {
			if !sameBatch(s.Sample(), clone.Sample()) {
				t.Fatalf("%s: resumed sampler diverged at post-resume step %d", s.Name(), j)
			}
		}
	}
}
