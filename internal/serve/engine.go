// Package serve turns a trained BNS-GCN checkpoint into an online
// node-classification service. The training side of the repo computes
// full-graph passes; serving inverts the access pattern — many small queries
// against a mostly-static graph — so the engine runs the stack once at
// startup through the stages every trainer runs (core.Model.Forward) and
// keeps every layer's pass open. The start-up pass's logit matrix is the
// cache: a query batch copies its answers out of it, and only the rows an
// update made stale are recomputed first, in one row-subset pass of the
// final layer (ForwardRows). A row's bits do not depend on which pass
// computes it, so a served logit row equals the FullTrainer.Forward(false)
// row for the same checkpoint, bit for bit.
//
// Feature updates do not recompute the graph: an incremental pass re-embeds
// only the changed node's receptive field — the frontier grows one
// neighborhood hop per layer — and marks just the affected logit rows stale,
// to be recomputed on their next request.
package serve

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Stats counts what the engine has done. All counters are cumulative; the
// engine is single-owner (see Server's dispatcher), so reads are exact.
type Stats struct {
	Predicts int64 `json:"predicts"` // Predict calls (batches)
	Nodes    int64 `json:"nodes"`    // node lookups across all Predict calls
	Hits     int64 `json:"hits"`     // lookups of a current logit row
	Misses   int64 `json:"misses"`   // lookups of a stale row, recomputed before the batch is answered
	Updates  int64 `json:"updates"`  // UpdateFeature calls
	// Recomputed counts hidden-layer rows re-embedded by updates;
	// Evicted counts logit rows updates newly marked stale.
	Recomputed int64 `json:"recomputed"`
	Evicted    int64 `json:"evicted"`
	Stale      int   `json:"stale_rows"` // logit rows awaiting recompute
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

	// stale marks the logit rows an update has invalidated; every other
	// row of logits is current.
	stale []bool
	miss  []int32 // reused: the stale rows one batch recomputes
	// mark/stamp implement O(frontier) set membership without clearing.
	mark  []int64
	stamp int64
	stats Stats
}

// NewEngine precomputes all activations for the graph and opens every
// layer's row pass. feats is copied, and the model's weights are cloned
// into a private model — the caller keeps ownership of both. Cloning is
// load-bearing, not defensive copying for style: the engine's permanently
// open pass and its activations live in the layers' forward state and
// output buffers, and a shared trainer calling Forward on the same layer
// objects would silently re-point that state at its own activations and
// overwrite them. cacheSize is unused: the start-up pass holds every logit
// row.
func NewEngine(model *core.Model, g *graph.Graph, feats *tensor.Matrix, cacheSize int) (*Engine, error) {
	if feats.Rows != g.N {
		return nil, fmt.Errorf("serve: %d feature rows for a %d-node graph", feats.Rows, g.N)
	}
	if feats.Cols != model.InDim {
		return nil, fmt.Errorf("serve: feature dim %d, model wants %d", feats.Cols, model.InDim)
	}
	clone, err := core.NewModel(model.Config, model.InDim, model.OutDim)
	if err != nil {
		return nil, err
	}
	clone.CopyWeightsFrom(model)
	model = clone
	e := &Engine{
		model: model,
		stale: make([]bool, g.N),
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
func (e *Engine) Stats() Stats { return e.stats }

// Predict returns the logit row for every requested node, in request order.
// The stale rows among them — deduplicated — are recomputed in ONE
// final-layer row-subset pass, which is where batching pays: coalescing k
// concurrent queries costs one kernel launch over their stale rows, not k
// launches. Every returned row is a private copy.
func (e *Engine) Predict(nodes []int32) ([][]float32, error) {
	for _, v := range nodes {
		if v < 0 || int(v) >= e.lay.G.N {
			return nil, fmt.Errorf("serve: node %d outside [0,%d)", v, e.lay.G.N)
		}
	}
	e.stats.Predicts++
	e.stats.Nodes += int64(len(nodes))

	// Every lookup of a row stale when the batch began is a miss; a repeat
	// within the batch is one more miss but not one more row to compute.
	miss := e.miss[:0]
	e.stamp++
	for _, v := range nodes {
		if !e.stale[v] {
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
		e.model.LayersL[len(e.model.LayersL)-1].ForwardRows(miss)
		for _, v := range miss {
			e.stale[v] = false
		}
		e.stats.Stale -= len(miss)
	}
	e.miss = miss

	c := e.logits.Cols
	buf := make([]float32, len(nodes)*c)
	res := make([][]float32, len(nodes))
	for i, v := range nodes {
		res[i] = buf[i*c : (i+1)*c : (i+1)*c]
		copy(res[i], e.logits.Row(int(v)))
	}
	return res, nil
}

// readers calls visit on every row one aggregation hop from a changed input
// row: the row itself (every layer reads its own row — SAGE's self-concat,
// GAT's self-attention slot) and every node whose neighborhood contains it —
// the layout plan's transposed index lists them, for each u, as the sources
// of u's incoming entries. A row may be visited more than once.
func (e *Engine) readers(changed []int32, visit func(v int32)) {
	ai := &e.lay.Agg
	for _, u := range changed {
		visit(u)
		for _, v := range ai.IncSrc[ai.IncIndptr[u]:ai.IncIndptr[u+1]] {
			visit(v)
		}
	}
}

// affected returns the readers of changed as a sorted, duplicate-free list.
func (e *Engine) affected(changed []int32) []int32 {
	e.stamp++
	var out []int32
	e.readers(changed, func(v int32) {
		if e.mark[v] != e.stamp {
			e.mark[v] = e.stamp
			out = append(out, v)
		}
	})
	slices.Sort(out)
	return out
}

// UpdateFeature replaces node's input features and re-embeds exactly its
// receptive field: the changed-row frontier starts at the node and widens by
// one hop per layer — hidden rows are recomputed in place, and the final
// layer's affected logit rows are marked stale, to be recomputed on their
// next request. Returns the number of distinct hidden rows recomputed plus
// the number of logit rows newly marked stale.
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
	for l, layer := range e.model.LayersL {
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
		if l == L-1 {
			break
		}
		rows := e.affected(changed)
		layer.ForwardRows(rows)
		e.stats.Recomputed += int64(len(rows))
		touched += len(rows)
		changed = rows
	}
	before := e.stats.Stale
	e.readers(changed, func(v int32) {
		if !e.stale[v] {
			e.stale[v] = true
			e.stats.Stale++
		}
	})
	fresh := e.stats.Stale - before
	e.stats.Evicted += int64(fresh)
	return touched + fresh, nil
}
