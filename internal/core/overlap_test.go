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

// TestSplitRowsPartition checks the per-epoch row split invariants the
// engine relies on: haloFree ∪ haloDep = [0, NIn) ascending and disjoint,
// haloSlots exactly the sampled boundary slots, and the per-peer buckets:
// every halo-dependent row appears once in the bucket of each peer it
// awaits, every bucket row has an active neighbor owned by that peer, and
// the drain's countdown consumed every wait (rowWait back at zero) — under
// either schedule, since both run the same split and the same drain.
func TestSplitRowsPartition(t *testing.T) {
	for _, sched := range []Schedule{ScheduleOverlap, ScheduleSerialized} {
		ds := testDataset(t, 8)
		topo := testTopology(t, ds, 3)
		tr, err := NewParallelTrainer(ds, topo, ParallelConfig{Model: testModelConfig(), P: 0.3, SampleSeed: 2, Schedule: sched})
		if err != nil {
			t.Fatal(err)
		}
		tr.TrainEpoch()
		checkSplitRows(t, tr)
	}
}

func checkSplitRows(t *testing.T, tr *ParallelTrainer) {
	t.Helper()
	for r, lp := range tr.Locals {
		seen := make([]int, lp.NIn)
		last := int32(-1)
		for _, v := range lp.haloFree {
			seen[v]++
		}
		for _, v := range lp.haloDep {
			seen[v]++
			if v <= last {
				t.Fatalf("rank %d: haloDep not ascending", r)
			}
			last = v
		}
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("rank %d: inner row %d covered %d times", r, v, c)
			}
		}
		nSlots := 0
		for s := lp.NIn; s < lp.NIn+lp.NBd; s++ {
			if lp.active[s] {
				nSlots++
			}
		}
		if len(lp.haloSlots) != nSlots {
			t.Fatalf("rank %d: %d halo slots listed, %d active", r, len(lp.haloSlots), nSlots)
		}

		// Bucket invariants.
		bucketed := make([]int, lp.NIn)
		for j, rows := range lp.peerRows {
			lastRow := int32(-1)
			for _, v := range rows {
				if v <= lastRow {
					t.Fatalf("rank %d: peerRows[%d] not ascending", r, j)
				}
				lastRow = v
				bucketed[v]++
				found := false
				for _, u := range lp.eg.Neighbors(v) {
					if int(u) >= lp.NIn && lp.slotOwner[int(u)-lp.NIn] == int32(j) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("rank %d: row %d bucketed under peer %d without an active neighbor there", r, v, j)
				}
			}
		}
		isDep := make([]bool, lp.NIn)
		for _, v := range lp.haloDep {
			isDep[v] = true
		}
		for v := 0; v < lp.NIn; v++ {
			if isDep[v] && bucketed[v] == 0 {
				t.Fatalf("rank %d: halo-dependent row %d awaits no peer", r, v)
			}
			if !isDep[v] && bucketed[v] != 0 {
				t.Fatalf("rank %d: halo-free row %d bucketed %d times", r, v, bucketed[v])
			}
			if lp.rowWait[v] != 0 {
				t.Fatalf("rank %d: rowWait[%d]=%d after the drain, want 0", r, v, lp.rowWait[v])
			}
		}
	}
}
