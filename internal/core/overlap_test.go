package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
)

// TestOverlapBitIdentical: what the engine trains must not depend on how much
// of an exchange it hides. The reference is the un-modeled channel run, where
// halos land while the halo-free rows compute; against it, both transports
// run under a uniform link latency longer than that compute, so every halo
// lands late, every halo-dependent row waits on it and nothing is hidden.
// Epoch for epoch the losses, the payload and reduce bytes, and at the end
// every rank's weights, bytes and message counts must match — for k ∈ {2, 4},
// both architectures, with dropout on (the mask stream's draw order is part
// of the contract) and p < 1 (so sampling, the row split and the halo
// exchange all vary by epoch).
func TestOverlapBitIdentical(t *testing.T) {
	for _, arch := range []Arch{ArchSAGE, ArchGAT} {
		for _, k := range []int{2, 4} {
			ds := testDataset(t, uint64(70+k))
			topo := testTopology(t, ds, k)
			mc := ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
			cfg := ParallelConfig{Model: mc, P: 0.5, SampleSeed: 17}
			late := comm.LinkModel{Latency: 2 * time.Millisecond}

			ref, err := NewParallelTrainer(ds, topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			runs := map[string]*ParallelTrainer{}
			for name, g := range map[string]*comm.Group{
				"chan/late": comm.WithLinkModel(comm.New(k, 0), late),
				"tcp/late":  comm.WithLinkModel(tcpLoopbackGroup(t, k), late),
			} {
				if runs[name], err = NewParallelTrainerOver(ds, topo, cfg, g); err != nil {
					t.Fatal(err)
				}
			}

			const epochs = 4
			for e := 0; e < epochs; e++ {
				want := ref.TrainEpoch()
				for name, tr := range runs {
					st := tr.TrainEpoch()
					if st.Loss != want.Loss {
						t.Fatalf("%s arch=%s k=%d epoch %d: loss %.17g != un-modeled %.17g", name, arch, k, e, st.Loss, want.Loss)
					}
					if st.CommBytes != want.CommBytes || st.ReduceBytes != want.ReduceBytes {
						t.Fatalf("%s arch=%s k=%d epoch %d: traffic (%d,%d) != un-modeled (%d,%d)",
							name, arch, k, e, st.CommBytes, st.ReduceBytes, want.CommBytes, want.ReduceBytes)
					}
				}
			}
			for r := 0; r < k; r++ {
				for name, tr := range runs {
					if d := MaxParamDiff(ref.Models[r], tr.Models[r]); d != 0 {
						t.Fatalf("%s arch=%s k=%d rank %d: weights diverged by %v", name, arch, k, r, d)
					}
					if rb, b := ref.Cluster.BytesSent(r), tr.Cluster.BytesSent(r); rb != b {
						t.Fatalf("%s arch=%s k=%d rank %d: payload bytes %d != un-modeled %d", name, arch, k, r, b, rb)
					}
					if rm, m := ref.Cluster.MessagesSent(r), tr.Cluster.MessagesSent(r); rm != m {
						t.Fatalf("%s arch=%s k=%d rank %d: messages %d != un-modeled %d", name, arch, k, r, m, rm)
					}
				}
			}
		}
	}
}

// TestOverlapArrivalSkewedLinksBitIdentical inverts delivery order — a
// skewed comm.WithLinkModel makes the lowest-rank peer's payloads the
// slowest, so the links deliver peers in descending rank order while the
// drain and the fold consume them in ascending rank — and requires the
// results over the skewed links to stay bit-identical to the un-modeled
// channel run on the same seed, for both architectures. The drain then waits
// on its first peer with every later payload already landed. Both runs also
// evaluate after every epoch, and on the wide fixture an evaluation's layer-0
// blocks travel in many frames each, so frames of one round land out of step
// across peers: the logits must be the same bits, and no round may hang.
func TestOverlapArrivalSkewedLinksBitIdentical(t *testing.T) {
	for _, c := range []struct {
		arch Arch
		k    int
		wide bool
	}{{ArchSAGE, 2, false}, {ArchSAGE, 4, false}, {ArchGAT, 2, false}, {ArchGAT, 4, false}, {ArchSAGE, 2, true}, {ArchSAGE, 4, true}} {
		arch, k := c.arch, c.k
		ds := testDataset(t, uint64(90+k))
		if c.wide {
			ds = wideDataset(t, uint64(90+k))
		}
		topo := testTopology(t, ds, k)
		mc := ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 8}
		cfg := ParallelConfig{Model: mc, P: 0.5, SampleSeed: 29}

		// Lower source rank ⇒ slower link, everywhere.
		model := comm.LinkModel{
			PerLink: map[comm.Link]time.Duration{},
			Jitter:  100 * time.Microsecond,
			Seed:    5,
		}
		for s := 0; s < k; s++ {
			for d := 0; d < k; d++ {
				if s != d {
					model.PerLink[comm.Link{Src: s, Dst: d}] = time.Duration(k-s) * 800 * time.Microsecond
				}
			}
		}

		ref, err := NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		skewed, err := NewParallelTrainerOver(ds, topo, cfg, comm.WithLinkModel(comm.New(k, 0), model))
		if err != nil {
			t.Fatal(err)
		}
		const epochs = 3
		for e := 0; e < epochs; e++ {
			want, got := ref.TrainEpoch(), skewed.TrainEpoch()
			if got.Loss != want.Loss {
				t.Fatalf("%s k=%d epoch %d: loss %.17g != %.17g under skewed links", arch, k, e, got.Loss, want.Loss)
			}
			if d := bitsDiffer(inferLogits(ref), inferLogits(skewed)); d > 0 {
				t.Fatalf("%s k=%d wide=%v epoch %d: %d logits of an evaluation differ in bits under skewed links", arch, k, c.wide, e, d)
			}
		}
		for r := 0; r < k; r++ {
			if d := MaxParamDiff(ref.Models[r], skewed.Models[r]); d != 0 {
				t.Fatalf("%s k=%d rank %d: weights diverged by %v under skewed links", arch, k, r, d)
			}
		}
	}
}

// TestOverlapWorstCaseAllBoundaryDependent pins the degenerate case: at p=1
// on a topology where every inner node of every partition has a remote
// neighbor, the halo-free chunk can be empty (zero overlap available) and
// every row waits in the drain. The signature — per-epoch losses and every
// rank's final weights, stratSignature's hash — and the halo bytes were
// captured at commit aca8b17 under the serialized schedule, which waited out
// every payload before computing, and are asserted over both transports.
func TestOverlapWorstCaseAllBoundaryDependent(t *testing.T) {
	const (
		wantHash  = 0x8d8ac802bf0ab0c6
		wantBytes = 170016
	)
	ds := testDataset(t, 31)
	const k = 2
	topo := testTopology(t, ds, k)
	mc := ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0.5, LR: 0.01, Seed: 3}
	cfg := ParallelConfig{Model: mc, P: 1, SampleSeed: 13}
	for _, backend := range []string{"chan", "tcp"} {
		g := comm.New(k, 0)
		if backend == "tcp" {
			g = tcpLoopbackGroup(t, k)
		}
		tr, err := NewParallelTrainerOver(ds, topo, cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		if h, b := stratSignature(t, tr, 3); h != wantHash || b != wantBytes {
			t.Errorf("%s: signature (%#x, %d bytes), want (%#x, %d bytes)", backend, h, b, uint64(wantHash), wantBytes)
		}
	}
}

// TestCommAccountingInvariants pins the documented relation between the two
// comm counters (see EpochStats) on every rank, not just the straggler. With
// exchanges in flight (p=0.5, k ∈ {2, 4}, both transports) every exposed
// interval lies inside its exchange's raw span, so a span is recorded and
// exposed never exceeds raw. With nothing in flight (k=1, and p=0 at k=2)
// nothing was hidden, so raw equals exposed exactly.
func TestCommAccountingInvariants(t *testing.T) {
	run := func(backend string, k int, p float64, check func(name string, st RankStats)) {
		t.Helper()
		ds := testDataset(t, uint64(60+k))
		topo := testTopology(t, ds, k)
		cfg := ParallelConfig{Model: testModelConfig(), P: p, SampleSeed: 11}
		g := comm.New(k, 0)
		if backend == "tcp" {
			g = tcpLoopbackGroup(t, k)
		}
		tr, err := NewParallelTrainerOver(ds, topo, cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 3; e++ {
			tr.TrainEpoch()
			for r, st := range tr.statsBuf {
				check(fmt.Sprintf("%s k=%d p=%v epoch %d rank %d", backend, k, p, e, r), st)
			}
		}
	}
	for _, backend := range []string{"chan", "tcp"} {
		for _, k := range []int{2, 4} {
			run(backend, k, 0.5, func(name string, st RankStats) {
				if st.Comm <= 0 {
					t.Fatalf("%s: no comm span recorded", name)
				}
				if st.CommExposed > st.Comm {
					t.Fatalf("%s: exposed %v exceeds raw %v", name, st.CommExposed, st.Comm)
				}
			})
		}
	}
	for _, c := range []struct {
		k int
		p float64
	}{{1, 0.5}, {2, 0}} {
		run("chan", c.k, c.p, func(name string, st RankStats) {
			if st.CommExposed != st.Comm {
				t.Fatalf("%s: nothing in flight, but exposed %v != raw %v", name, st.CommExposed, st.Comm)
			}
		})
	}
}

// TestEpochPhasesTileTheEpoch pins the phase clock's two structural
// properties on every rank: the four critical-path phases sum to the clock's
// own first-to-last reading to the nanosecond, and the raw span exceeds the
// exposed comm by at most the compute it hid, never by a negative amount.
func TestEpochPhasesTileTheEpoch(t *testing.T) {
	for _, backend := range []string{"chan", "tcp"} {
		for _, k := range []int{1, 2, 4} {
			for _, p := range []float64{0.1, 1} {
				ds := testDataset(t, uint64(70+k))
				topo := testTopology(t, ds, k)
				g := comm.New(k, 0)
				if backend == "tcp" {
					g = tcpLoopbackGroup(t, k)
				}
				tr, err := NewParallelTrainerOver(ds, topo, ParallelConfig{Model: testModelConfig(), P: p, SampleSeed: 5}, g)
				if err != nil {
					t.Fatal(err)
				}
				for e := 0; e < 2; e++ {
					tr.TrainEpoch()
					for r, st := range tr.statsBuf {
						name := fmt.Sprintf("%s k=%d p=%v epoch %d rank %d", backend, k, p, e, r)
						clk := &tr.Ranks[r].ep.clk
						if sum, span := st.Sample+st.Compute+st.CommExposed+st.Reduce, clk.last.Sub(clk.first); sum != span {
							t.Fatalf("%s: phases sum to %v, the clock read %v", name, sum, span)
						}
						if hidden := st.Comm - st.CommExposed; hidden < 0 || hidden > st.Compute {
							t.Fatalf("%s: raw %v − exposed %v outside [0, compute %v]", name, st.Comm, st.CommExposed, st.Compute)
						}
					}
				}
			}
		}
	}
}

// TestPlanKeptWhileActiveSetRepeats: an epoch that plans exactly the active
// set of the one before (p=1, p=0) keeps the plan products — the slot map,
// epoch graph, aggregation plan, row split and receive lists — and an epoch
// that plans anything else rebuilds them. The probe is a sentinel in the
// slot map, which only a rebuild writes and only a rebuild reads.
func TestPlanKeptWhileActiveSetRepeats(t *testing.T) {
	ds := testDataset(t, 8)
	topo := testTopology(t, ds, 3)
	for _, tc := range []struct {
		name string
		p    float64
		kept bool
	}{
		{"p=1", 1, true},
		{"p=0", 0, true},
		{"p=0.5", 0.5, false},
	} {
		tr, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: tc.p, SampleSeed: 2})
		if err != nil {
			t.Fatal(err)
		}
		tr.TrainEpoch()
		const sentinel = -7
		for _, rt := range tr.Ranks {
			rt.LP.slotRow[0] = sentinel
		}
		tr.TrainEpoch()
		for r, rt := range tr.Ranks {
			if kept := rt.LP.slotRow[0] == sentinel; kept != tc.kept {
				t.Errorf("%s rank %d: plan kept = %v, want %v", tc.name, r, kept, tc.kept)
			}
		}
	}
}
