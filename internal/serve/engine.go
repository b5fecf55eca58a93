// Package serve turns a trained BNS-GCN checkpoint into an online
// node-classification service. The training side of the repo computes
// full-graph passes; serving inverts the access pattern — many small queries
// against a mostly-static graph — so the engine runs the stack once at
// startup through the stages every trainer runs (core.Model.Forward), keeps
// every layer's pass open, and answers each query batch with one row-subset
// pass over exactly the requested logit rows (the final layer's ForwardRows).
// A row's bits do not depend on which pass computes it, so a served logit row
// equals the FullTrainer.Forward(false) row for the same checkpoint, bit for
// bit.
//
// Feature updates do not recompute the graph: an incremental pass re-embeds
// only the changed node's receptive field — the frontier grows one
// neighborhood hop per layer — and evicts just the affected logit rows from
// the cache.
package serve

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Stats counts what the engine has done. All counters are cumulative; the
// engine is single-owner (see Server's dispatcher), so reads are exact.
type Stats struct {
	Predicts int64 `json:"predicts"` // Predict calls (batches)
	Nodes    int64 `json:"nodes"`    // node lookups across all Predict calls
	Hits     int64 `json:"hits"`     // lookups answered from the embedding cache
	Misses   int64 `json:"misses"`   // lookups that needed a fresh final-layer row pass
	Updates  int64 `json:"updates"`  // UpdateFeature calls
	// Recomputed counts hidden-layer rows re-embedded by updates;
	// Evicted counts final-layer cache rows invalidated by updates.
	Recomputed int64 `json:"recomputed"`
	Evicted    int64 `json:"evicted"`
	CacheLen   int   `json:"cache_len"`
	CacheCap   int   `json:"cache_cap"`
}

// Engine owns a model, a graph, and the activation state of a permanently
// open inference pass. It is NOT safe for concurrent use — the HTTP layer
// serializes access through a single dispatcher goroutine, which is also
// what makes request batching natural.
type Engine struct {
	model *core.Model
	lay   core.Layout // the served graph, and its plan and normalizer

	// feats is the mutable feature copy, logits the final layer's output.
	// Every layer reads its input in place — feats, or the layer below's own
	// output buffer, which its ForwardRows refills — and each layer of the
	// private model is begun once, so no pass ever re-points a buffer.
	feats, logits *tensor.Matrix

	cache *lruCache
	// mark/stamp implement O(frontier) set membership without clearing.
	mark  []int64
	stamp int64
	stats Stats
}

// NewEngine precomputes all hidden activations for the graph and opens the
// final layer's row pass. feats is copied, and the model's weights are cloned
// into a private model — the caller keeps ownership of both. Cloning is
// load-bearing, not defensive copying for style: the engine's permanently
// open pass and its hidden activations live in the layers' forward state and
// output buffers, and a shared trainer calling Forward on the same layer
// objects would silently re-point that state at its own activations and
// overwrite them.
func NewEngine(model *core.Model, g *graph.Graph, feats *tensor.Matrix, cacheSize int) (*Engine, error) {
	if feats.Rows != g.N {
		return nil, fmt.Errorf("serve: %d feature rows for a %d-node graph", feats.Rows, g.N)
	}
	if feats.Cols != model.InDim {
		return nil, fmt.Errorf("serve: feature dim %d, model wants %d", feats.Cols, model.InDim)
	}
	if cacheSize <= 0 {
		cacheSize = 1
	}
	clone, err := core.NewModel(model.Config, model.InDim, model.OutDim)
	if err != nil {
		return nil, err
	}
	clone.CopyWeightsFrom(model)
	model = clone
	e := &Engine{
		model: model,
		cache: newLRUCache(cacheSize),
		mark:  make([]int64, g.N),
	}
	e.lay.Build(g)

	// Startup pass: exactly FullTrainer.Forward(false). Its passes stay
	// open, so ForwardRows can refill any row of any layer on demand.
	e.feats = tensor.New(feats.Rows, feats.Cols)
	e.feats.CopyFrom(feats)
	e.logits = model.Forward(&e.lay, e.feats, false)
	return e, nil
}

// NumNodes returns the size of the served graph's node space.
func (e *Engine) NumNodes() int { return e.lay.G.N }

// NumClasses returns the width of a logit row.
func (e *Engine) NumClasses() int { return e.model.OutDim }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.CacheLen = e.cache.len()
	s.CacheCap = e.cache.cap
	return s
}

// Predict returns the logit row for every requested node, in request order.
// Cached rows are served as-is; the misses — deduplicated — are computed in
// ONE final-layer row-subset pass, which is where batching pays: coalescing
// k concurrent single-node queries costs one kernel launch over k rows, not
// k launches. Every returned row is a private copy.
func (e *Engine) Predict(nodes []int32) ([][]float32, error) {
	for _, v := range nodes {
		if v < 0 || int(v) >= e.lay.G.N {
			return nil, fmt.Errorf("serve: node %d outside [0,%d)", v, e.lay.G.N)
		}
	}
	e.stats.Predicts++
	e.stats.Nodes += int64(len(nodes))

	// Batch-local rows: cache hits plus everything computed this batch. A
	// local map (not the cache) carries the batch so an eviction mid-batch
	// cannot drop a row a later request in the same batch needs.
	rows := make(map[int32][]float32, len(nodes))
	var miss []int32
	e.stamp++
	for _, v := range nodes {
		if _, ok := rows[v]; ok {
			e.stats.Hits++
			continue
		}
		if row, ok := e.cache.get(v); ok {
			rows[v] = row
			e.stats.Hits++
			continue
		}
		e.stats.Misses++
		if e.mark[v] != e.stamp {
			e.mark[v] = e.stamp
			miss = append(miss, v)
		}
	}
	if len(miss) > 0 {
		final := e.model.LayersL[len(e.model.LayersL)-1]
		final.ForwardRows(miss)
		for _, v := range miss {
			row := append([]float32(nil), e.logits.Row(int(v))...)
			rows[v] = row
			e.cache.put(v, row)
		}
	}
	res := make([][]float32, len(nodes))
	for i, v := range nodes {
		res[i] = rows[v]
	}
	return res, nil
}

// affected expands a set of changed input rows by one aggregation hop: the
// rows themselves (every layer reads its own row — SAGE's self-concat,
// GAT's self-attention slot) plus every node whose neighborhood contains
// one — the layout plan's transposed index lists them, for each u, as the
// sources of u's incoming entries. Returns a sorted, duplicate-free list.
func (e *Engine) affected(changed []int32) []int32 {
	ai := &e.lay.Agg
	e.stamp++
	var out []int32
	add := func(v int32) {
		if e.mark[v] != e.stamp {
			e.mark[v] = e.stamp
			out = append(out, v)
		}
	}
	for _, u := range changed {
		add(u)
		for _, v := range ai.IncSrc[ai.IncIndptr[u]:ai.IncIndptr[u+1]] {
			add(v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UpdateFeature replaces node's input features and re-embeds exactly its
// receptive field: the changed-row frontier starts at the node and widens by
// one hop per layer — hidden rows are recomputed in place, and the final
// layer's affected logit rows are evicted from the cache to be recomputed
// lazily on their next request. Returns the number of hidden rows
// recomputed plus logit rows evicted.
func (e *Engine) UpdateFeature(node int32, feat []float32) (int, error) {
	if node < 0 || int(node) >= e.lay.G.N {
		return 0, fmt.Errorf("serve: node %d outside [0,%d)", node, e.lay.G.N)
	}
	if len(feat) != e.model.InDim {
		return 0, fmt.Errorf("serve: %d features for node %d, model wants %d", len(feat), node, e.model.InDim)
	}
	e.stats.Updates++
	copy(e.feats.Row(int(node)), feat)

	touched := 0
	changed := []int32{node}
	L := len(e.model.LayersL)
	for l := 0; l < L; l++ {
		layer := e.model.LayersL[l]
		// Refresh per-input-row precomputations for the rows that changed
		// (GAT's Wh and attention scores; a no-op for SAGE), run by run of
		// the ascending list, before any output row that attends to them is
		// recomputed.
		for i := 0; i < len(changed); {
			r0, r1 := int(changed[i]), int(changed[i])+1
			for i++; i < len(changed) && int(changed[i]) == r1; i++ {
				r1++
			}
			layer.ForwardPrep(r0, r1)
		}
		rows := e.affected(changed)
		if l < L-1 {
			layer.ForwardRows(rows)
			e.stats.Recomputed += int64(len(rows))
		} else {
			for _, v := range rows {
				if e.cache.remove(v) {
					e.stats.Evicted++
				}
			}
		}
		touched += len(rows)
		changed = rows
	}
	return touched, nil
}
