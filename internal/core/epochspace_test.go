package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/partition"
)

// serializedLinks is a link model under which a rank's halos land one peer
// at a time: every payload from source rank s takes (s+1)·600µs, so peers
// become consumable in ascending rank order, each well after the one before.
func serializedLinks(k int) comm.LinkModel {
	m := comm.LinkModel{PerLink: map[comm.Link]time.Duration{}}
	for s := 0; s < k; s++ {
		for d := 0; d < k; d++ {
			if s != d {
				m.PerLink[comm.Link{Src: s, Dst: d}] = time.Duration(s+1) * 600 * time.Microsecond
			}
		}
	}
	return m
}

// TestEpochSpaceInvariants trains a few epochs at every sampling rate, under
// every hosted strategy, both architectures, two arrival patterns and k = 2,
// 3 and 4 ranks, and checks the epoch node space after each epoch and after
// an evaluation (checkEpochSpace): inner rows plus exactly the sampled
// boundary slots, receive lists tiling the halo rows, each owner sending
// exactly what its peer sampled, the row split partitioning the inner rows,
// and the epoch graph equal edge for edge to the full-space graph it
// replaces. LADIES covers per-slot receive scales; p=0 and p=1 are the empty
// and the identity slot map, where the plan is also kept from one epoch to
// the next. The leaf names the arrival pattern: "overlap" runs on un-modeled
// channels, where halos land while the halo-free rows compute; "serialized"
// runs over serializedLinks, where each rank's halos land one peer at a time,
// so the drain waits on every peer in turn. k=3 runs unprefixed. At k=4 the
// same checks run on ranks restored from checkpoints (replayAfterRestore).
func TestEpochSpaceInvariants(t *testing.T) {
	ds := testDataset(t, 8)
	for _, k := range []int{2, 3, 4} {
		topo := testTopology(t, ds, k)
		groups := map[string]func() *comm.Group{
			"overlap":    func() *comm.Group { return comm.New(k, 0) },
			"serialized": func() *comm.Group { return comm.WithLinkModel(comm.New(k, 0), serializedLinks(k)) },
		}
		prefix := fmt.Sprintf("k=%d/", k)
		if k == 3 {
			prefix = ""
		}
		for _, p := range []float64{0, 0.1, 0.5, 1} {
			for name, strategy := range map[string]Strategy{"bns": BNS, "ladies": LADIES} {
				for _, arch := range []Arch{ArchSAGE, ArchGAT} {
					for arrival, group := range groups {
						t.Run(fmt.Sprintf("%sp=%v/%s/%s/%s", prefix, p, name, arch, arrival), func(t *testing.T) {
							tr, err := NewParallelTrainerOver(ds, topo, spaceConfig(topo, p, strategy, arch), group())
							if err != nil {
								t.Fatal(err)
							}
							for e := 0; e < 3; e++ {
								tr.TrainEpoch()
								checkEpochSpace(t, tr)
							}
							tr.Evaluate(ds.ValMask)
							checkEpochSpace(t, tr)
						})
					}
				}
			}
		}
		if k == 4 {
			replayAfterRestore(t, ds, topo, prefix)
		}
	}
}

// spaceConfig is the run TestEpochSpaceInvariants trains on topo: BNS at
// rate p, or LADIES at a budget of p of the largest boundary (0 keeps all,
// so p=0 asks for one slot).
func spaceConfig(topo *Topology, p float64, strategy Strategy, arch Arch) ParallelConfig {
	maxBd := 0
	for _, b := range topo.Boundary {
		maxBd = max(maxBd, len(b))
	}
	budget := int(p * float64(maxBd))
	if p == 0 {
		budget = 1
	}
	mc := ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
	return ParallelConfig{Model: mc, P: p, SampleSeed: 2, Strategy: strategy, Budget: budget}
}

// replayAfterRestore checks the owners' replay where a rank's sample does
// not come from running its own epochs: after every rank is restored from a
// checkpoint of topo's k-rank run — rank r from slot (r+1) mod k's, another
// rank's — and on the layout partition.ShrinkToMembers derives when slot 1
// leaves, each rank restored from its slot's (a resize replay restores every
// rank from one rank's file; any rank's serves alike).
// Each later epoch must pass checkEpochSpace, whose send check is the
// owner's computation of its peer's sample against the peer's own.
func replayAfterRestore(t *testing.T, ds *datagen.Dataset, topo *Topology, prefix string) {
	k := topo.K
	members := []int{0}
	for r := 2; r < k; r++ {
		members = append(members, r)
	}
	shrunk, err := partition.ShrinkToMembers(ds.G, topo.Parts, k, members)
	if err != nil {
		t.Fatal(err)
	}
	small, err := BuildTopology(ds.G, shrunk, len(members))
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []Strategy{BNS, LADIES} {
		cfg := spaceConfig(topo, 0.5, strategy, ArchSAGE)
		src, err := NewParallelTrainer(ds, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 2; e++ {
			src.TrainEpoch()
		}
		shard := make([][]byte, k)
		for r, rt := range src.Ranks {
			shard[r] = snapshotTrainer(rt).Encode()
		}
		for _, tc := range []struct {
			name  string
			topo  *Topology
			donor func(r int) int
		}{
			{"donor", topo, func(r int) int { return (r + 1) % k }},
			{"shrunk", small, func(r int) int { return members[r] }},
		} {
			t.Run(fmt.Sprintf("%srestored/%v/%s", prefix, strategy, tc.name), func(t *testing.T) {
				tr, err := NewParallelTrainer(ds, tc.topo, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for r, rt := range tr.Ranks {
					if err := restoreBytes(shard[tc.donor(r)], rt); err != nil {
						t.Fatal(err)
					}
				}
				for e := 0; e < 3; e++ {
					tr.TrainEpoch()
					checkEpochSpace(t, tr)
				}
			})
		}
	}
}

// checkEpochSpace asserts, on every rank of a trainer that has just finished
// an epoch, the invariants of the epoch node space the engine's stages rely
// on: the space holds the inner rows and exactly the sampled boundary slots;
// the slot map and its inverse are a bijection between them and the halo
// rows; no edge leaves the space; the halo rows are owner-major — each peer's
// sampled slots one block of rows, in ascending slot order (its wire order),
// the blocks in ascending peer order, tiling the halo rows; what each peer
// sends is, row for row, what this rank's sample asks of it — the owner's
// replay equals the requester's draw; the row split partitions the inner
// rows, a row halo-dependent exactly when it has a halo neighbor; and mapping
// epoch ids back through the slot map reproduces, edge for edge, the static
// adjacency with the unsampled slots struck out — the full-space epoch graph
// this runtime used to train on.
func checkEpochSpace(t testing.TB, tr *ParallelTrainer) {
	t.Helper()
	for r, rt := range tr.Ranks {
		lp := rt.LP
		nIn := int32(lp.NIn)
		eg := &lp.eg

		// Node space: slotRow and rowSlot are inverse maps between the
		// sampled slots and the halo rows.
		nSampled := 0
		for s, on := range lp.planActive {
			row := lp.slotRow[s]
			if !on {
				if row != -1 {
					t.Fatalf("rank %d: unsampled slot %d has epoch row %d", r, s, row)
				}
				continue
			}
			if row < nIn || int(row-nIn) >= len(lp.rowSlot) || lp.rowSlot[row-nIn] != int32(s) {
				t.Fatalf("rank %d: sampled slot %d has epoch row %d, which does not map back to it", r, s, row)
			}
			nSampled++
		}
		if eg.N != lp.NIn+nSampled || len(eg.Indptr) != eg.N+1 || len(lp.rowSlot) != nSampled {
			t.Fatalf("rank %d: epoch space has %d rows (%d indptr entries, %d mapped halo rows), want %d inner + %d sampled",
				r, eg.N, len(eg.Indptr), len(lp.rowSlot), lp.NIn, nSampled)
		}
		for x, s := range lp.rowSlot {
			if lp.slotRow[s] != nIn+int32(x) {
				t.Fatalf("rank %d: epoch halo row %d maps to slot %d, whose epoch row is %d", r, lp.NIn+x, s, lp.slotRow[s])
			}
		}
		if int(eg.Indptr[lp.NIn]) != len(eg.Indices) {
			t.Fatalf("rank %d: halo rows have outgoing edges", r)
		}

		// Edge for edge against the full-space reference.
		for v := int32(0); v < nIn; v++ {
			got := eg.Neighbors(v)
			x := 0
			for _, u := range lp.fullIndices[lp.fullIndptr[v]:lp.fullIndptr[v+1]] {
				if u >= nIn && !lp.planActive[u-nIn] {
					continue
				}
				if x == len(got) {
					t.Fatalf("rank %d: row %d is missing active neighbor %d", r, v, u)
				}
				g := got[x]
				if g < 0 || int(g) >= eg.N {
					t.Fatalf("rank %d: row %d has neighbor %d outside the %d-row epoch space", r, v, g, eg.N)
				}
				if g >= nIn {
					g = nIn + lp.rowSlot[g-nIn]
				}
				if g != u {
					t.Fatalf("rank %d: row %d neighbor %d maps back to %d, the full-space graph has %d", r, v, x, g, u)
				}
				x++
			}
			if x != len(got) {
				t.Fatalf("rank %d: row %d has %d epoch edges, the full-space graph has %d", r, v, len(got), x)
			}
		}

		// Owner-major blocks tile [NIn, eg.N): peer j's rows are
		// [haloPtr[j], haloPtr[j+1]), the blocks in ascending peer order, and
		// block j holds the sampled slots of Recv[r][j], ascending.
		k := len(tr.Topo.Recv[r])
		if len(lp.haloPtr) != k+1 || lp.haloPtr[0] != lp.NIn || lp.haloPtr[k] != eg.N {
			t.Fatalf("rank %d: peer blocks %v do not tile the halo rows [%d,%d)", r, lp.haloPtr, nIn, eg.N)
		}
		for j, full := range tr.Topo.Recv[r] {
			lo, hi := lp.haloPtr[j], lp.haloPtr[j+1]
			if hi < lo {
				t.Fatalf("rank %d: peer blocks %v are not in ascending peer order", r, lp.haloPtr)
			}
			var want []int32
			for _, slot := range full {
				if lp.planActive[slot] {
					want = append(want, slot)
				}
			}
			got := lp.rowSlot[lo-lp.NIn : hi-lp.NIn]
			if !slices.Equal(got, want) {
				t.Fatalf("rank %d: peer %d's block holds slots %v, its sampled slots are %v", r, j, got, want)
			}
			if !slices.IsSorted(got) {
				t.Fatalf("rank %d: peer %d's block %v is not in ascending slot order", r, j, got)
			}
		}

		// Each owner's replay of my sample is my sample: peer j sends me
		// exactly Send[j][r] at the positions of Recv[r][j] my active set
		// names, in wire order, so every sampled slot is filled and nothing
		// else moves.
		for j, full := range tr.Topo.Recv[r] {
			if j == r {
				continue
			}
			var want []int32
			for x, slot := range full {
				if lp.active[slot] {
					want = append(want, tr.Topo.Send[j][r][x])
				}
			}
			if got := tr.Ranks[j].LP.sendRows[r]; !slices.Equal(got, want) {
				t.Fatalf("rank %d: peer %d sends rows %v, my sample names %v", r, j, got, want)
			}
		}

		// Row split.
		seen := make([]int, lp.NIn)
		for _, list := range [][]int32{lp.haloFree, lp.haloDep} {
			last := int32(-1)
			for _, v := range list {
				if v <= last {
					t.Fatalf("rank %d: a row-split list is not ascending at row %d", r, v)
				}
				last = v
				seen[v]++
			}
		}
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("rank %d: inner row %d covered %d times by haloFree ∪ haloDep", r, v, c)
			}
		}
		isDep := make([]bool, lp.NIn)
		for _, v := range lp.haloDep {
			isDep[v] = true
		}
		for _, list := range [][]int32{lp.haloFree, lp.haloDep} {
			for _, v := range list {
				if halo := slices.ContainsFunc(eg.Neighbors(v), func(u int32) bool { return u >= nIn }); halo != isDep[v] {
					t.Fatalf("rank %d: row %d has a halo neighbor: %v, but is listed halo-dependent: %v", r, v, halo, isDep[v])
				}
			}
		}
	}
}
