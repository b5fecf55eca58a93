package partition

import (
	"fmt"

	"repro/internal/graph"
)

// This file implements the elastic world-resizing side of partitioning: the
// initial k-way cut (METIS or Random) stays a launch-time decision, but when
// a rank is lost permanently the survivors must fold the dead partition's
// nodes into their own partitions — deterministically, so every survivor
// computes the identical new layout without any coordination beyond agreeing
// on which slots are dead.
//
// reassignDead is the fold, reached through ShrinkToMembers: each
// dead-partition node moves to the surviving
// partition it shares the most boundary edges with (its strongest halo
// affinity), which is the assignment a greedy one-node-at-a-time pass can
// reach that least inflates the new edge cut. Survivor nodes never move —
// their feature rows and training history stay put, which is what makes
// checkpoint remapping after a shrink a pure load (node features are
// replicated inputs, and model/optimizer state is replica-identical across
// ranks, so absorbed rows carry nothing that needs migrating).

// reassignDead folds every partition marked dead into the survivors in one
// ascending-id pass. Each dead node moves to the surviving partition owning
// the most of its neighbors under the updated assignment (so chains of dead
// nodes fold coherently), ties toward the lowest partition id; a node with
// no surviving neighbor at visit time goes to the currently smallest
// survivor (lowest id on ties). The partition id space keeps width k.
func reassignDead(g *graph.Graph, parts []int32, k int, dead []bool) ([]int32, error) {
	if len(parts) != g.N {
		return nil, fmt.Errorf("partition: assignment covers %d nodes, graph has %d", len(parts), g.N)
	}
	survivors := 0
	for p := 0; p < k; p++ {
		if !dead[p] {
			survivors++
		}
	}
	if survivors == 0 {
		return nil, fmt.Errorf("partition: no surviving partition to absorb the rows (k=%d, all dead)", k)
	}
	out := make([]int32, len(parts))
	sizes := make([]int, k)
	for v, p := range parts {
		if p < 0 || int(p) >= k {
			return nil, fmt.Errorf("partition: node %d assigned to invalid partition %d (k=%d)", v, p, k)
		}
		out[v] = p
		sizes[p]++
	}
	counts := make([]int, k)
	for v := 0; v < g.N; v++ {
		from := out[v]
		if !dead[from] {
			continue
		}
		for p := range counts {
			counts[p] = 0
		}
		for _, u := range g.Neighbors(int32(v)) {
			if p := out[u]; !dead[p] {
				counts[p]++
			}
		}
		best := -1
		for p := 0; p < k; p++ {
			if dead[p] || counts[p] == 0 {
				continue
			}
			if best < 0 || counts[p] > counts[best] {
				best = p
			}
		}
		if best < 0 {
			// Interior pocket: no surviving neighbor yet. Balance wins.
			for p := 0; p < k; p++ {
				if dead[p] {
					continue
				}
				if best < 0 || sizes[p] < sizes[best] {
					best = p
				}
			}
		}
		out[v] = int32(best)
		sizes[from]--
		sizes[best]++
	}
	return out, nil
}

// Compact renumbers an assignment whose partition ids all lie in the member
// set onto dense ids [0, len(members)): members[i] becomes i. members must
// be strictly ascending. This is the bridge between the stable "slot" id
// space (launch-time ranks, checkpoint file names, rendezvous candidates)
// and the dense rank space a k′-sized mesh actually trains with.
func Compact(parts []int32, members []int) ([]int32, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("partition: empty member set")
	}
	remap := make(map[int32]int32, len(members))
	for i, m := range members {
		if m < 0 {
			return nil, fmt.Errorf("partition: negative member slot %d", m)
		}
		if i > 0 && members[i-1] >= m {
			return nil, fmt.Errorf("partition: member set %v is not strictly ascending", members)
		}
		remap[int32(m)] = int32(i)
	}
	out := make([]int32, len(parts))
	for v, p := range parts {
		np, ok := remap[p]
		if !ok {
			return nil, fmt.Errorf("partition: node %d sits in partition %d, which is not in the member set %v", v, p, members)
		}
		out[v] = np
	}
	return out, nil
}

// ShrinkToMembers derives the k′-way layout a surviving member set trains
// with from the launch-time k-way assignment: every non-member partition is
// folded into the survivors in a single deterministic pass (the result is a
// pure function of (parts, members), so every survivor computes the same
// layout independently), then the result is compacted onto dense ranks
// [0, len(members)). Growing back to the full world is the same call with
// the full member set — a no-op fold followed by an identity compaction —
// so shed rows return to exactly their original owners.
func ShrinkToMembers(g *graph.Graph, parts []int32, k int, members []int) ([]int32, error) {
	if len(members) > k {
		return nil, fmt.Errorf("partition: %d members exceed world size %d", len(members), k)
	}
	live := make([]bool, k)
	for i, m := range members {
		if m < 0 || m >= k {
			return nil, fmt.Errorf("partition: member slot %d outside [0,%d)", m, k)
		}
		if i > 0 && members[i-1] >= m {
			return nil, fmt.Errorf("partition: member set %v is not strictly ascending", members)
		}
		live[m] = true
	}
	dead := make([]bool, k)
	for p := 0; p < k; p++ {
		dead[p] = !live[p]
	}
	out, err := reassignDead(g, parts, k, dead)
	if err != nil {
		return nil, err
	}
	return Compact(out, members)
}
