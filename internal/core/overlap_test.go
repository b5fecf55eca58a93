package core

import (
	"testing"
	"time"

	"repro/internal/comm"
)

// TestOverlapBitIdentical is the epoch engine's schedule-equivalence proof:
// the same seeded dataset trained with the overlapped schedule must produce,
// epoch for epoch, bit-identical losses, bit-identical weights on every
// rank, and identical per-rank payload byte/message counts as the serialized
// schedule — over both transports, for k ∈ {2, 4}, for both architectures,
// with dropout on (the mask RNG stream order is part of the contract) and
// p < 1 (so sampling, the row split, and the halo exchange all vary by
// epoch).
func TestOverlapBitIdentical(t *testing.T) {
	for _, arch := range []Arch{ArchSAGE, ArchGAT} {
		for _, k := range []int{2, 4} {
			ds := testDataset(t, uint64(70+k))
			topo := testTopology(t, ds, k)
			mc := ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
			base := ParallelConfig{Model: mc, P: 0.5, SampleSeed: 17, Schedule: ScheduleSerialized}
			overlap := base
			overlap.Schedule = ScheduleOverlap

			type run struct {
				name string
				tr   *ParallelTrainer
			}
			mk := func(name string, cfg ParallelConfig, g *comm.Group) run {
				t.Helper()
				var tr *ParallelTrainer
				var err error
				if g == nil {
					tr, err = NewParallelTrainer(ds, topo, cfg)
				} else {
					tr, err = NewParallelTrainerOver(ds, topo, cfg, g)
				}
				if err != nil {
					t.Fatal(err)
				}
				return run{name: name, tr: tr}
			}
			runs := []run{
				mk("chan/serialized", base, nil),
				mk("chan/overlap", overlap, nil),
				mk("tcp/serialized", base, tcpLoopbackGroup(t, k)),
				mk("tcp/overlap", overlap, tcpLoopbackGroup(t, k)),
			}

			const epochs = 4
			for e := 0; e < epochs; e++ {
				ref := runs[0].tr.TrainEpoch()
				for _, r := range runs[1:] {
					st := r.tr.TrainEpoch()
					if st.Loss != ref.Loss {
						t.Fatalf("%s arch=%s k=%d epoch %d: loss %.17g != serialized %.17g",
							r.name, arch, k, e, st.Loss, ref.Loss)
					}
					if st.CommBytes != ref.CommBytes || st.ReduceBytes != ref.ReduceBytes {
						t.Fatalf("%s arch=%s k=%d epoch %d: traffic (%d,%d) != serialized (%d,%d)",
							r.name, arch, k, e, st.CommBytes, st.ReduceBytes, ref.CommBytes, ref.ReduceBytes)
					}
				}
			}
			for r := 0; r < k; r++ {
				for _, rr := range runs[1:] {
					if d := MaxParamDiff(runs[0].tr.Models[r], rr.tr.Models[r]); d != 0 {
						t.Fatalf("%s arch=%s k=%d rank %d: weights diverged by %v", rr.name, arch, k, r, d)
					}
					if cb, ob := runs[0].tr.Cluster.BytesSent(r), rr.tr.Cluster.BytesSent(r); cb != ob {
						t.Fatalf("%s arch=%s k=%d rank %d: payload bytes %d != serialized %d", rr.name, arch, k, r, ob, cb)
					}
					if cm, om := runs[0].tr.Cluster.MessagesSent(r), rr.tr.Cluster.MessagesSent(r); cm != om {
						t.Fatalf("%s arch=%s k=%d rank %d: messages %d != serialized %d", rr.name, arch, k, r, om, cm)
					}
				}
			}
		}
	}
}

// TestOverlapArrivalSkewedLinksBitIdentical forces peer completion order to
// invert — a skewed comm.WithLinkModel makes the lowest-rank peer's payloads
// the slowest, so the drain consumes peers in descending rank order — and
// requires the results of both schedules over the skewed links to stay
// bit-identical to the un-modeled serialized schedule. This is the
// determinism argument under real out-of-order completion, not just under
// loopback's near-FIFO timing.
func TestOverlapArrivalSkewedLinksBitIdentical(t *testing.T) {
	for _, k := range []int{2, 4} {
		ds := testDataset(t, uint64(90+k))
		topo := testTopology(t, ds, k)
		mc := ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 8}
		base := ParallelConfig{Model: mc, P: 0.5, SampleSeed: 29, Schedule: ScheduleSerialized}

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

		ref, err := NewParallelTrainer(ds, topo, base)
		if err != nil {
			t.Fatal(err)
		}
		type skewed struct {
			name string
			tr   *ParallelTrainer
		}
		var runs []skewed
		for _, sched := range []Schedule{ScheduleSerialized, ScheduleOverlap} {
			cfg := base
			cfg.Schedule = sched
			tr, err := NewParallelTrainerOver(ds, topo, cfg, comm.WithLinkModel(comm.New(k, 0), model))
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, skewed{name: sched.String(), tr: tr})
		}
		const epochs = 3
		for e := 0; e < epochs; e++ {
			want := ref.TrainEpoch()
			for _, r := range runs {
				got := r.tr.TrainEpoch()
				if got.Loss != want.Loss {
					t.Fatalf("k=%d %s epoch %d: loss %.17g != %.17g under skewed links", k, r.name, e, got.Loss, want.Loss)
				}
			}
		}
		for r := 0; r < k; r++ {
			for _, rr := range runs {
				if d := MaxParamDiff(ref.Models[r], rr.tr.Models[r]); d != 0 {
					t.Fatalf("k=%d %s rank %d: weights diverged by %v under skewed links", k, rr.name, r, d)
				}
			}
		}
	}
}

// TestOverlapWorstCaseAllBoundaryDependent pins the degenerate schedule: at
// p=1 on a topology where every inner node of every partition has a remote
// neighbor, the halo-free chunk can be empty (zero overlap available) and
// the two schedules must still be exactly equivalent.
func TestOverlapWorstCaseAllBoundaryDependent(t *testing.T) {
	ds := testDataset(t, 31)
	const k = 2
	topo := testTopology(t, ds, k)
	mc := ModelConfig{Arch: ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0.5, LR: 0.01, Seed: 3}
	base := ParallelConfig{Model: mc, P: 1, SampleSeed: 13, Schedule: ScheduleSerialized}

	cfg := base
	cfg.Schedule = ScheduleOverlap
	b, err := NewParallelTrainer(ds, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewParallelTrainer(ds, topo, base)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		sa, sb := a.TrainEpoch(), b.TrainEpoch()
		if sa.Loss != sb.Loss {
			t.Fatalf("epoch %d: loss diverged %.17g vs %.17g", e, sa.Loss, sb.Loss)
		}
	}
	for r := 0; r < k; r++ {
		if d := MaxParamDiff(a.Models[r], b.Models[r]); d != 0 {
			t.Fatalf("rank %d diverged by %v", r, d)
		}
	}
}

// TestCommAccountingInvariants pins the documented relation between the two
// comm counters (see EpochStats) on every rank, not just the straggler:
// under ScheduleSerialized nothing is hidden, so the raw span equals the
// exposed time exactly; under ScheduleOverlap every exposed interval lies
// inside its exchange's raw span, so exposed never exceeds raw. Over both
// transports, k ∈ {2, 4}.
func TestCommAccountingInvariants(t *testing.T) {
	for _, backend := range []string{"chan", "tcp"} {
		for _, k := range []int{2, 4} {
			for _, sched := range []Schedule{ScheduleSerialized, ScheduleOverlap} {
				ds := testDataset(t, uint64(60+k))
				topo := testTopology(t, ds, k)
				cfg := ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 11, Schedule: sched}
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
						if st.Comm <= 0 {
							t.Fatalf("%s k=%d %s epoch %d rank %d: no comm span recorded", backend, k, sched, e, r)
						}
						if sched == ScheduleSerialized && st.CommExposed != st.Comm {
							t.Fatalf("%s k=%d serialized epoch %d rank %d: exposed %v != raw %v",
								backend, k, e, r, st.CommExposed, st.Comm)
						}
						if st.CommExposed > st.Comm {
							t.Fatalf("%s k=%d %s epoch %d rank %d: exposed %v exceeds raw %v",
								backend, k, sched, e, r, st.CommExposed, st.Comm)
						}
					}
				}
			}
		}
	}
}

// rowDroppingBNS is BNS at p=1 that reports DropsInner: the same active set
// every epoch, under a plan shape the engine must never keep.
type rowDroppingBNS struct{ Strategy }

func (s rowDroppingBNS) PlanEpoch(p *Plan) {
	s.Strategy.PlanEpoch(p)
	p.DropsInner = true
}

// TestPlanKeptWhileActiveSetRepeats: an epoch that plans exactly the active
// set of the one before (p=1, p=0) keeps the plan products — the slot map,
// epoch graph, aggregation plan, row split and receive lists — and an epoch
// that plans anything else, or a row-dropping plan, rebuilds them. The probe
// is a sentinel in the slot map, which only a rebuild writes and only a
// rebuild reads.
func TestPlanKeptWhileActiveSetRepeats(t *testing.T) {
	ds := testDataset(t, 8)
	topo := testTopology(t, ds, 3)
	for _, tc := range []struct {
		name     string
		p        float64
		strategy StrategyFactory
		kept     bool
	}{
		{"p=1", 1, nil, true},
		{"p=0", 0, nil, true},
		{"p=0.5", 0.5, nil, false},
		{"p=1 row-dropping", 1, func(rank int) Strategy { return rowDroppingBNS{NewBNSStrategy(1, 2, rank)} }, false},
	} {
		tr, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: tc.p, SampleSeed: 2, Strategy: tc.strategy})
		if err != nil {
			t.Fatal(err)
		}
		tr.TrainEpoch()
		const sentinel = -7
		for _, lp := range tr.Locals {
			lp.slotRow[0] = sentinel
		}
		tr.TrainEpoch()
		for r, lp := range tr.Locals {
			if kept := lp.slotRow[0] == sentinel; kept != tc.kept {
				t.Errorf("%s rank %d: plan kept = %v, want %v", tc.name, r, kept, tc.kept)
			}
		}
	}
}
