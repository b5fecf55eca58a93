package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/comm"
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
// every hosted strategy, both architectures and two arrival patterns, and
// checks the epoch node space after each epoch (checkEpochSpace): inner rows
// plus exactly the sampled boundary slots, receive lists tiling the halo
// rows, the row split partitioning the inner rows, and the epoch graph equal
// edge for edge to the full-space graph it replaces. LADIES covers per-slot
// receive scales; p=0 and p=1 are the empty and the identity slot map, where the plan is also kept from
// one epoch to the next. The leaf names the arrival pattern: "overlap" runs
// on un-modeled channels, where halos land while the halo-free rows compute;
// "serialized" runs over serializedLinks, where each rank's halos land one
// peer at a time, so the drain waits on every peer in turn.
func TestEpochSpaceInvariants(t *testing.T) {
	ds := testDataset(t, 8)
	const k = 3
	topo := testTopology(t, ds, k)
	maxBd := 0
	for _, b := range topo.Boundary {
		maxBd = max(maxBd, len(b))
	}
	groups := map[string]func() *comm.Group{
		"overlap":    func() *comm.Group { return comm.New(k, 0) },
		"serialized": func() *comm.Group { return comm.WithLinkModel(comm.New(k, 0), serializedLinks(k)) },
	}
	for _, p := range []float64{0, 0.1, 0.5, 1} {
		// LADIES takes a budget of kept slots (0 keeps all, so p=0 asks for
		// one).
		budget := int(p * float64(maxBd))
		if p == 0 {
			budget = 1
		}
		for name, strategy := range map[string]Strategy{"bns": BNS, "ladies": LADIES} {
			for _, arch := range []Arch{ArchSAGE, ArchGAT} {
				for arrival, group := range groups {
					t.Run(fmt.Sprintf("p=%v/%s/%s/%s", p, name, arch, arrival), func(t *testing.T) {
						mc := ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
						cfg := ParallelConfig{Model: mc, P: p, SampleSeed: 2, Strategy: strategy, Budget: budget}
						tr, err := NewParallelTrainerOver(ds, topo, cfg, group())
						if err != nil {
							t.Fatal(err)
						}
						for e := 0; e < 3; e++ {
							tr.TrainEpoch()
							checkEpochSpace(t, tr)
						}
					})
				}
			}
		}
	}
}

// checkEpochSpace asserts, on every rank of a trainer that has just finished
// an epoch, the invariants of the epoch node space the engine's stages rely
// on: the space holds the inner rows and exactly the sampled boundary slots;
// the slot map is a monotone bijection onto the halo rows; no edge leaves the
// space; the receive lists tile the halo rows, per peer ascending; the
// positions requested of each peer are the active slots of its receive list;
// the row split partitions the inner rows, a row halo-dependent exactly when
// it has a halo neighbor; and mapping epoch ids back through the slot map
// reproduces, edge for edge, the static adjacency with the unsampled slots
// struck out — the full-space epoch graph this runtime used to train on.
func checkEpochSpace(t testing.TB, tr *ParallelTrainer) {
	t.Helper()
	for r, rt := range tr.Ranks {
		lp := rt.LP
		nIn := int32(lp.NIn)
		eg := &lp.eg

		// Node space and slot map.
		nSampled := 0
		for s, on := range lp.planActive {
			if on {
				if want := nIn + int32(nSampled); lp.slotRow[s] != want {
					t.Fatalf("rank %d: sampled slot %d has epoch row %d, want %d", r, s, lp.slotRow[s], want)
				}
				if lp.rowSlot[nSampled] != int32(s) {
					t.Fatalf("rank %d: epoch halo row %d maps back to slot %d, want %d", r, nSampled, lp.rowSlot[nSampled], s)
				}
				nSampled++
			} else if lp.slotRow[s] != -1 {
				t.Fatalf("rank %d: unsampled slot %d has epoch row %d", r, s, lp.slotRow[s])
			}
		}
		if eg.N != lp.NIn+nSampled || len(eg.Indptr) != eg.N+1 || len(lp.rowSlot) != nSampled {
			t.Fatalf("rank %d: epoch space has %d rows (%d indptr entries, %d mapped halo rows), want %d inner + %d sampled",
				r, eg.N, len(eg.Indptr), len(lp.rowSlot), lp.NIn, nSampled)
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

		// Receive lists tile [NIn, eg.N).
		filled := make([]int, nSampled)
		for j, rows := range lp.recvSlots {
			last := int32(-1)
			for x, row := range rows {
				if row <= last {
					t.Fatalf("rank %d: recvSlots[%d] not ascending", r, j)
				}
				last = row
				if row < nIn || int(row) >= eg.N {
					t.Fatalf("rank %d: recvSlots[%d] holds row %d outside the halo rows [%d,%d)", r, j, row, nIn, eg.N)
				}
				filled[row-nIn]++
				slot := lp.rowSlot[row-nIn]
				owner := tr.Topo.Parts[tr.Topo.Boundary[r][slot]]
				if want := tr.Topo.Recv[r][j][lp.myPos[j][x]]; slot != want || owner != int32(j) {
					t.Fatalf("rank %d: recvSlots[%d][%d] is slot %d (owner %d), the position names slot %d", r, j, x, slot, owner, want)
				}
			}
		}
		for i, c := range filled {
			if c != 1 {
				t.Fatalf("rank %d: epoch halo row %d is in %d receive lists", r, lp.NIn+i, c)
			}
		}

		// The demand on each peer is the active set read through that peer's
		// receive list: the positions sent to j — and what j holds as received
		// — are exactly the active slots of Recv[r][j], ascending, and every
		// active slot is asked of exactly one peer.
		requested := make([]int, lp.NBd)
		for j, full := range tr.Topo.Recv[r] {
			var want []int32
			for x, slot := range full {
				if lp.active[slot] {
					want = append(want, int32(x))
					requested[slot]++
				}
			}
			if !slices.Equal(lp.myPos[j], want) {
				t.Fatalf("rank %d: requested positions %v of peer %d, the active set names %v", r, lp.myPos[j], j, want)
			}
			if j != r && !slices.Equal(tr.Ranks[j].LP.theirPos[r], want) {
				t.Fatalf("rank %d: peer %d holds positions %v of mine, the active set names %v", r, j, tr.Ranks[j].LP.theirPos[r], want)
			}
		}
		for slot, c := range requested {
			if lp.active[slot] && c != 1 {
				t.Fatalf("rank %d: active slot %d is requested from %d peers", r, slot, c)
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
