package partition

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Metis is a multilevel k-way partitioner in the METIS family
// (Karypis & Kumar, 1998): the graph is repeatedly coarsened by heavy-edge
// matching, partitioned at the coarsest level by greedy region growing, and
// the partition is projected back level by level with Kernighan–Lin-style
// boundary refinement at each step. A final refinement pass on the original
// graph optimizes the paper's objective directly: the number of boundary
// nodes (communication volume, Eq. 3).
type Metis struct {
	Seed      uint64
	Imbalance float64 // allowed load factor; default 1.05
	// VolumePasses is the number of final communication-volume refinement
	// passes on the uncoarsened graph; default 2.
	VolumePasses int
}

// Name implements Partitioner.
func (m *Metis) Name() string { return "metis" }

func (m *Metis) imbalance() float64 {
	if m.Imbalance <= 1 {
		return 1.05
	}
	return m.Imbalance
}

// wedge is a weighted adjacency entry of the coarsening hierarchy.
type wedge struct {
	to int32
	w  int64
}

// wgraph is a weighted graph used during coarsening. vwgt[v] counts original
// nodes merged into v; edge weights count original edges merged.
type wgraph struct {
	n    int
	vwgt []int64
	adj  [][]wedge
}

func fromGraph(g *graph.Graph) *wgraph {
	wg := &wgraph{n: g.N, vwgt: make([]int64, g.N), adj: make([][]wedge, g.N)}
	for v := 0; v < g.N; v++ {
		wg.vwgt[v] = 1
		nbrs := g.Neighbors(int32(v))
		row := make([]wedge, len(nbrs))
		for i, u := range nbrs {
			row[i] = wedge{to: u, w: 1}
		}
		wg.adj[v] = row
	}
	return wg
}

func (wg *wgraph) totalWeight() int64 {
	var t int64
	for _, w := range wg.vwgt {
		t += w
	}
	return t
}

// Partition implements Partitioner.
func (m *Metis) Partition(g *graph.Graph, k int) ([]int32, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	if g.N == 0 {
		return []int32{}, nil
	}
	if k == 1 {
		return make([]int32, g.N), nil
	}
	rng := tensor.NewRNG(m.Seed)

	// Coarsening phase.
	levels := []*wgraph{fromGraph(g)}
	var maps [][]int32 // maps[i][v] = coarse id of fine node v at level i
	coarsestTarget := 40 * k
	if coarsestTarget < 200 {
		coarsestTarget = 200
	}
	for levels[len(levels)-1].n > coarsestTarget {
		cur := levels[len(levels)-1]
		coarse, cmap := coarsen(cur, rng)
		if coarse.n >= cur.n*9/10 { // matching stalled; stop coarsening
			break
		}
		levels = append(levels, coarse)
		maps = append(maps, cmap)
	}

	// Initial partition on the coarsest graph.
	coarsest := levels[len(levels)-1]
	parts := regionGrow(coarsest, k, loadBound(coarsest, k, m.imbalance()), rng)
	refineLevel(coarsest, parts, k, m.imbalance(), rng, 12)

	// Uncoarsening with refinement at each level.
	for i := len(levels) - 2; i >= 0; i-- {
		fine := levels[i]
		cmap := maps[i]
		fineParts := make([]int32, fine.n)
		for v := 0; v < fine.n; v++ {
			fineParts[v] = parts[cmap[v]]
		}
		parts = fineParts
		refineLevel(fine, parts, k, m.imbalance(), rng, 8)
	}

	// Final passes minimizing the boundary-node communication volume.
	passes := m.VolumePasses
	if passes == 0 {
		passes = 2
	}
	maxSize := int(float64(g.N) / float64(k) * m.imbalance())
	if maxSize < 1 {
		maxSize = 1
	}
	for p := 0; p < passes; p++ {
		if refineVolume(g, parts, k, maxSize, rng) == 0 {
			break
		}
	}
	return parts, nil
}

// coarsen performs one level of heavy-edge matching and contraction.
func coarsen(wg *wgraph, rng *tensor.RNG) (*wgraph, []int32) {
	match := make([]int32, wg.n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(wg.n)
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		var best int32 = -1
		var bestW int64 = -1
		for _, e := range wg.adj[v] {
			if match[e.to] == -1 && e.w > bestW {
				best, bestW = e.to, e.w
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	// Assign coarse ids.
	cmap := make([]int32, wg.n)
	for i := range cmap {
		cmap[i] = -1
	}
	var nc int32
	for v := 0; v < wg.n; v++ {
		if cmap[v] != -1 {
			continue
		}
		cmap[v] = nc
		if int(match[v]) != v {
			cmap[match[v]] = nc
		}
		nc++
	}
	// Build coarse graph. pos holds each coarse neighbour's index in buf
	// while one coarse node's row is merged there, and -1 otherwise.
	coarse := &wgraph{n: int(nc), vwgt: make([]int64, nc), adj: make([][]wedge, nc)}
	pos := make([]int32, nc)
	for i := range pos {
		pos[i] = -1
	}
	var buf []wedge
	done := make([]bool, wg.n)
	for v := 0; v < wg.n; v++ {
		cv := cmap[v]
		coarse.vwgt[cv] += wg.vwgt[v]
		if done[v] {
			continue
		}
		// Merge adjacency of v and its match once per coarse node.
		group := []int{v}
		if int(match[v]) != v {
			group = append(group, int(match[v]))
		}
		for _, gv := range group {
			done[gv] = true
		}
		buf = buf[:0]
		for _, gv := range group {
			for _, e := range wg.adj[gv] {
				ct := cmap[e.to]
				if ct == cv {
					continue
				}
				if i := pos[ct]; i >= 0 {
					buf[i].w += e.w
					continue
				}
				pos[ct] = int32(len(buf))
				buf = append(buf, wedge{to: ct, w: e.w})
			}
		}
		row := slices.Clone(buf)
		for _, e := range row {
			pos[e.to] = -1
		}
		slices.SortFunc(row, func(a, b wedge) int { return cmp.Compare(a.to, b.to) })
		coarse.adj[cv] = row
	}
	return coarse, cmap
}

// regionGrow produces an initial k-way partition by BFS region growing from
// random seeds. Each part keeps seeding fresh BFS frontiers until it reaches
// its weight target, so disconnected pockets do not strand nodes; any
// remainder joins the lightest part adjacent to it when possible.
func regionGrow(wg *wgraph, k int, maxLoad int64, rng *tensor.RNG) []int32 {
	parts := make([]int32, wg.n)
	for i := range parts {
		parts[i] = -1
	}
	loads := make([]int64, k)
	target := wg.totalWeight() / int64(k)
	order := rng.Perm(wg.n)
	oi := 0
	nextSeed := func() int32 {
		for oi < len(order) && parts[order[oi]] != -1 {
			oi++
		}
		if oi >= len(order) {
			return -1
		}
		return order[oi]
	}
	var queue []int32
	for p := 0; p < k; p++ {
		for loads[p] < target {
			seed := nextSeed()
			if seed < 0 {
				break
			}
			queue = append(queue[:0], seed)
			parts[seed] = int32(p)
			loads[p] += wg.vwgt[seed]
			for len(queue) > 0 && loads[p] < target {
				v := queue[0]
				queue = queue[1:]
				for _, e := range wg.adj[v] {
					if parts[e.to] == -1 && loads[p]+wg.vwgt[e.to] <= maxLoad {
						parts[e.to] = int32(p)
						loads[p] += wg.vwgt[e.to]
						queue = append(queue, e.to)
						if loads[p] >= target {
							break
						}
					}
				}
			}
		}
	}
	// Remainder (from rounding of target): prefer the lightest adjacent part,
	// falling back to the globally lightest.
	for v := 0; v < wg.n; v++ {
		if parts[v] != -1 {
			continue
		}
		best := int32(-1)
		for _, e := range wg.adj[v] {
			if p := parts[e.to]; p >= 0 && (best < 0 || loads[p] < loads[best]) {
				best = p
			}
		}
		if best < 0 {
			best = 0
			for p := 1; p < k; p++ {
				if loads[p] < loads[best] {
					best = int32(p)
				}
			}
		}
		parts[v] = best
		loads[best] += wg.vwgt[v]
	}
	return parts
}

func loadBound(wg *wgraph, k int, imbalance float64) int64 {
	b := int64(float64(wg.totalWeight()) / float64(k) * imbalance)
	if b < 1 {
		b = 1
	}
	return b
}

// refineLevel improves the partition of one hierarchy level. A tight balance
// bound blocks the pairwise swaps greedy refinement needs, so it alternates:
// refine under a relaxed bound (letting cut-improving mass flow freely),
// rebalance back under the strict bound with minimum cut damage, then a
// final strictly-bounded polish.
func refineLevel(wg *wgraph, parts []int32, k int, imbalance float64, rng *tensor.RNG, passes int) {
	strict := loadBound(wg, k, imbalance)
	relaxed := loadBound(wg, k, imbalance*1.35)
	refineEdgeCut(wg, parts, k, relaxed, rng, passes)
	rebalance(wg, parts, k, strict)
	refineEdgeCut(wg, parts, k, strict, rng, 3)
}

// rebalance moves nodes out of overloaded parts until every load is within
// maxLoad, choosing at each step the candidate with the least edge-cut
// damage. Targets are chosen greedily among parts with spare capacity.
func rebalance(wg *wgraph, parts []int32, k int, maxLoad int64) {
	loads := make([]int64, k)
	for v := 0; v < wg.n; v++ {
		loads[parts[v]] += wg.vwgt[v]
	}
	conn := make([]int64, k)
	for over := 0; over < k; over++ {
		if loads[over] <= maxLoad {
			continue
		}
		// Rank all members of the overloaded part by the cut damage of
		// evicting them (own-part connectivity), cheapest first.
		type cand struct {
			v    int32
			ownW int64
		}
		var cs []cand
		for v := 0; v < wg.n; v++ {
			if parts[v] != int32(over) {
				continue
			}
			var ownW int64
			for _, e := range wg.adj[v] {
				if parts[e.to] == int32(over) {
					ownW += e.w
				}
			}
			cs = append(cs, cand{v: int32(v), ownW: ownW})
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].ownW < cs[j].ownW })
		for _, c := range cs {
			if loads[over] <= maxLoad {
				break
			}
			// Best target: adjacent part with max connectivity and capacity,
			// else the lightest part with capacity.
			touched := touchedParts(wg.adj[c.v], parts, conn)
			best := int32(-1)
			var bestW int64 = -1
			for _, p := range touched {
				if p != int32(over) && loads[p]+wg.vwgt[c.v] <= maxLoad && conn[p] > bestW {
					best, bestW = p, conn[p]
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
			if best < 0 {
				for p := 0; p < k; p++ {
					if p != over && loads[p]+wg.vwgt[c.v] <= maxLoad && (best < 0 || loads[p] < loads[best]) {
						best = int32(p)
					}
				}
			}
			if best < 0 {
				break // nowhere to put anything; give up on this part
			}
			loads[over] -= wg.vwgt[c.v]
			loads[best] += wg.vwgt[c.v]
			parts[c.v] = best
		}
	}
}

// refineEdgeCut runs greedy KL-style passes: each boundary node may move to
// the adjacent part with maximal positive edge-weight gain, subject to the
// load bound. Stops early when a pass makes no moves.
func refineEdgeCut(wg *wgraph, parts []int32, k int, maxLoad int64, rng *tensor.RNG, passes int) {
	loads := make([]int64, k)
	for v := 0; v < wg.n; v++ {
		loads[parts[v]] += wg.vwgt[v]
	}
	conn := make([]int64, k)
	for pass := 0; pass < passes; pass++ {
		moves := 0
		order := rng.Perm(wg.n)
		for _, v := range order {
			own := parts[v]
			row := wg.adj[v]
			if len(row) == 0 {
				continue
			}
			// Connectivity to each adjacent part.
			touched := touchedParts(row, parts, conn)
			ownW := conn[own]
			var best int32 = -1
			var bestGain int64
			for _, p := range touched {
				if p == own {
					continue
				}
				gain := conn[p] - ownW
				if gain > bestGain && loads[p]+wg.vwgt[v] <= maxLoad {
					best, bestGain = p, gain
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
			if best >= 0 {
				loads[own] -= wg.vwgt[v]
				loads[best] += wg.vwgt[v]
				parts[v] = best
				moves++
			}
		}
		if moves == 0 {
			break
		}
	}
}

// touchedParts accumulates edge weight per adjacent part into conn and
// returns the list of parts touched (including the owner part if adjacent).
func touchedParts(row []wedge, parts []int32, conn []int64) []int32 {
	touched := make([]int32, 0, 8)
	for _, e := range row {
		p := parts[e.to]
		if conn[p] == 0 {
			touched = append(touched, p)
		}
		conn[p] += e.w
	}
	return touched
}

// refineVolume performs one greedy pass minimizing the exact boundary-node
// communication volume Vol = Σ_v D(v) (Eq. 3), where D(v) is the number of
// distinct parts other than part(v) among v's neighbors. A node moves to the
// adjacent part with the most negative ΔVol, subject to the size bound.
// Returns the number of moves made.
func refineVolume(g *graph.Graph, parts []int32, k int, maxSize int, rng *tensor.RNG) int {
	sizes := make([]int, k)
	for _, p := range parts {
		sizes[p]++
	}
	moves := 0
	order := rng.Perm(g.N)
	seen := make([]bool, k)
	for _, v := range order {
		own := parts[v]
		nbrs := g.Neighbors(int32(v))
		// Candidate target parts = parts of neighbors.
		cands := cands(nbrs, parts, own, seen)
		if len(cands) == 0 {
			continue
		}
		bestDelta := 0
		var best int32 = -1
		for _, p := range cands {
			if sizes[p]+1 > maxSize {
				continue
			}
			d := volumeDelta(g, parts, int32(v), p, seen)
			if d < bestDelta {
				bestDelta, best = d, p
			}
		}
		if best >= 0 {
			sizes[own]--
			sizes[best]++
			parts[v] = best
			moves++
		}
	}
	return moves
}

func cands(nbrs []int32, parts []int32, own int32, seen []bool) []int32 {
	out := make([]int32, 0, 4)
	for _, u := range nbrs {
		p := parts[u]
		if p != own && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, p := range out {
		seen[p] = false
	}
	return out
}

// volumeDelta computes the exact change in Σ D(·) if v moves to part b.
// It touches v and v's neighbors only.
func volumeDelta(g *graph.Graph, parts []int32, v, b int32, seen []bool) int {
	a := parts[v]
	// ΔD(v): recompute D under both assignments.
	dOld, dNew := 0, 0
	nbrs := g.Neighbors(v)
	touched := make([]int32, 0, 8)
	for _, u := range nbrs {
		p := parts[u]
		if !seen[p] {
			seen[p] = true
			touched = append(touched, p)
		}
	}
	for _, p := range touched {
		if p != a {
			dOld++
		}
		if p != b {
			dNew++
		}
		seen[p] = false
	}
	delta := dNew - dOld
	// ΔD(u) for each neighbor u: only membership of parts a and b in u's
	// neighbor-part multiset can change, and only via v itself.
	for _, u := range nbrs {
		pu := parts[u]
		var hasAOther, hasBOther bool // a/b present among u's neighbors besides v
		for _, w := range g.Neighbors(u) {
			if w == v {
				continue
			}
			switch parts[w] {
			case a:
				hasAOther = true
			case b:
				hasBOther = true
			}
			if hasAOther && hasBOther {
				break
			}
		}
		// Before the move v contributes part a; after, part b.
		if a != pu && !hasAOther {
			delta-- // u loses remote part a
		}
		if b != pu && !hasBOther {
			delta++ // u gains remote part b
		}
	}
	return delta
}
