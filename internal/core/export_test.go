package core

import "testing"

// This file opens package internals to the external test package core_test,
// which — unlike package core's own tests — may import internal/sampling
// (sampling imports core) and so can drive the real LADIES and GraphSAINT
// strategies through the engine.

// NewTestDataset and NewTestTopology are the suite's small seeded fixtures.
var (
	NewTestDataset  = testDataset
	NewTestTopology = testTopology
)

// CheckEpochSpace asserts, on every rank of a trainer that has just finished
// an epoch, the invariants of the epoch node space the engine's stages rely
// on: the space holds the inner rows and exactly the sampled boundary slots;
// the slot map is a monotone bijection onto the halo rows; no edge leaves the
// space; the receive lists tile the halo rows, per peer ascending; the row
// split partitions the inner rows, with every halo-dependent row bucketed
// once under each peer it awaits and the drain's countdown fully consumed;
// and mapping epoch ids back through the slot map reproduces, edge for edge,
// the static adjacency filtered by the plan's active set — the full-space
// epoch graph this runtime used to train on.
func CheckEpochSpace(t testing.TB, tr *ParallelTrainer) {
	t.Helper()
	for r, lp := range tr.Locals {
		nIn := int32(lp.NIn)
		eg := &lp.eg

		// Node space and slot map.
		nSampled := 0
		for s, on := range lp.planActive[lp.NIn:] {
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
			if lp.planActive[v] {
				for _, u := range lp.fullIndices[lp.fullIndptr[v]:lp.fullIndptr[v+1]] {
					if !lp.planActive[u] {
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
				if want := tr.Topo.Recv[r][j][lp.myPos[j][x]]; slot != want || lp.slotOwner[slot] != int32(j) {
					t.Fatalf("rank %d: recvSlots[%d][%d] is slot %d (owner %d), the position names slot %d", r, j, x, slot, lp.slotOwner[slot], want)
				}
			}
		}
		for i, c := range filled {
			if c != 1 {
				t.Fatalf("rank %d: epoch halo row %d is in %d receive lists", r, lp.NIn+i, c)
			}
		}

		// Row split.
		seen := make([]int, lp.NIn)
		for _, list := range [][]int32{lp.haloFree, lp.haloDep, lp.skipRows} {
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
				t.Fatalf("rank %d: inner row %d covered %d times by haloFree ∪ haloDep ∪ skipRows", r, v, c)
			}
		}
		bucketed := make([]int, lp.NIn)
		for j, rows := range lp.peerRows {
			last := int32(-1)
			for _, v := range rows {
				if v <= last {
					t.Fatalf("rank %d: peerRows[%d] not ascending", r, j)
				}
				last = v
				bucketed[v]++
				found := false
				for _, u := range eg.Neighbors(v) {
					if u >= nIn && lp.slotOwner[lp.rowSlot[u-nIn]] == int32(j) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("rank %d: row %d bucketed under peer %d without a halo neighbor there", r, v, j)
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
