package serve

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func testDataset(t testing.TB, seed uint64) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Name: "serve-test", Nodes: 400, Communities: 5, AvgDegree: 7,
		IntraFrac: 0.8, DegreeSkew: 2.0, FeatureDim: 10,
		FeatureSignal: 0.5, FeatureNoise: 1.0,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// trainedModel trains a FullTrainer for a few epochs (so the weights are not
// an init pattern) and returns it plus a snapshot of its exact inference
// logits — taken before the engine touches the model's layer state.
func trainedModel(t testing.TB, ds *datagen.Dataset, arch core.Arch, layers int) (*core.FullTrainer, *tensor.Matrix) {
	t.Helper()
	cfg := core.ModelConfig{Arch: arch, Layers: layers, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 7}
	ft, err := core.NewFullTrainer(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		ft.TrainEpoch()
	}
	logits := ft.Forward(false)
	ref := tensor.New(logits.Rows, logits.Cols)
	ref.CopyFrom(logits)
	return ft, ref
}

func rowsEqual(a []float32, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// updatedReference is FullTrainer.Forward(false) with ft's weights over the
// features of testDataset(seed) with the rows in upd replaced: the
// from-scratch pass a served row must equal after those updates.
func updatedReference(t testing.TB, seed uint64, ft *core.FullTrainer, upd map[int32][]float32) *tensor.Matrix {
	t.Helper()
	ds := testDataset(t, seed)
	for v, feat := range upd {
		copy(ds.Features.Row(int(v)), feat)
	}
	ft2, err := core.NewFullTrainer(ds, ft.Model.Config)
	if err != nil {
		t.Fatal(err)
	}
	ft2.Model.CopyWeightsFrom(ft.Model)
	return ft2.Forward(false)
}

// rampFeatures is a feature row unlike any the dataset generates.
func rampFeatures(dim int, scale float32) []float32 {
	f := make([]float32, dim)
	for j := range f {
		f[j] = scale * (float32(j)*0.25 - 1)
	}
	return f
}

// TestPredictMatchesFullTrainer is the serving bit-identity contract: every
// logit row the engine serves — from the start-up pass or recomputed after
// an update, any batch split — equals the FullTrainer.Forward(false) row for
// the same weights and features, bit for bit.
func TestPredictMatchesFullTrainer(t *testing.T) {
	for _, tc := range []struct {
		arch   core.Arch
		layers int
	}{
		{core.ArchSAGE, 2},
		{core.ArchSAGE, 3},
		{core.ArchGAT, 2},
	} {
		t.Run(string(tc.arch)+"-"+string(rune('0'+tc.layers))+"layer", func(t *testing.T) {
			ds := testDataset(t, 11)
			ft, ref := trainedModel(t, ds, tc.arch, tc.layers)
			eng, err := NewEngine(ft.Model, ds.G, ds.Features, 64)
			if err != nil {
				t.Fatal(err)
			}
			check := func(batch []int32, ref *tensor.Matrix) {
				t.Helper()
				rows, err := eng.Predict(batch)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range batch {
					if !rowsEqual(rows[i], ref.Row(int(v))) {
						t.Fatalf("node %d: served logits %v != reference %v", v, rows[i], ref.Row(int(v)))
					}
				}
			}
			// Uneven batch sizes, repeats within a batch, and re-requests
			// all must produce the reference bits.
			var nodes []int32
			for v := 0; v < ds.G.N; v++ {
				nodes = append(nodes, int32(v))
			}
			for _, batch := range [][]int32{nodes[:7], nodes[5:100], {3, 3, 9}, nodes} {
				check(batch, ref)
			}
			// After an update, one batch mixes current rows with stale ones
			// it recomputes.
			feat := rampFeatures(ds.FeatureDim(), 1)
			if _, err := eng.UpdateFeature(5, feat); err != nil {
				t.Fatal(err)
			}
			before := eng.Stats()
			check(nodes, updatedReference(t, 11, ft, map[int32][]float32{5: feat}))
			st := eng.Stats()
			if st.Hits == before.Hits || st.Misses == before.Misses {
				t.Fatalf("the batch after an update should have both hits and misses: %+v, before %+v", st, before)
			}
		})
	}
}

// TestEngineOutlivesItsTrainer: a trained model holds its weights and no
// pass, so an engine built over one whose trainer has been dropped and
// collected serves what that trainer's Forward(false) computed, bit for bit,
// and after an update what a fresh pass over the updated features computes.
func TestEngineOutlivesItsTrainer(t *testing.T) {
	for _, arch := range []core.Arch{core.ArchSAGE, core.ArchGAT} {
		t.Run(string(arch), func(t *testing.T) {
			ds := testDataset(t, 11)
			m, ref, trainer := func() (*core.Model, *tensor.Matrix, weak.Pointer[core.FullTrainer]) {
				ft, ref := trainedModel(t, ds, arch, 2)
				return ft.Model, ref, weak.Make(ft)
			}()
			runtime.GC()
			if trainer.Value() != nil {
				t.Fatal("the trainer was not collected")
			}
			eng, err := NewEngine(m, ds.G, ds.Features, 64)
			if err != nil {
				t.Fatal(err)
			}
			nodes := make([]int32, ds.G.N)
			for v := range nodes {
				nodes[v] = int32(v)
			}
			check := func(ref *tensor.Matrix) {
				t.Helper()
				rows, err := eng.Predict(nodes)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range nodes {
					if !rowsEqual(rows[i], ref.Row(int(v))) {
						t.Fatalf("node %d: served logits %v != reference %v", v, rows[i], ref.Row(int(v)))
					}
				}
			}
			check(ref)
			feat := rampFeatures(ds.FeatureDim(), 1)
			if _, err := eng.UpdateFeature(5, feat); err != nil {
				t.Fatal(err)
			}
			// updatedReference reads only the trainer's model.
			check(updatedReference(t, 11, &core.FullTrainer{Model: m}, map[int32][]float32{5: feat}))
		})
	}
}

// TestEngineFromHydratedCheckpoint pins the full serving path: weights-only
// checkpoint on disk → hydration → engine → bit-identical logits. This is
// exactly what cmd/bnsserve does at startup — including refusing a file with
// a flipped bit in its weights, which only the container's CRC can notice.
func TestEngineFromHydratedCheckpoint(t *testing.T) {
	ds := testDataset(t, 12)
	ft, ref := trainedModel(t, ds, core.ArchSAGE, 2)
	path := filepath.Join(t.TempDir(), "m.bnsc")
	if err := core.SaveCheckpointFile(path, ft.Model); err != nil {
		t.Fatal(err)
	}
	m, err := core.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(m, ds.G, ds.Features, 32)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []int32
	for v := 0; v < ds.G.N; v++ {
		nodes = append(nodes, int32(v))
	}
	rows, err := eng.Predict(nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range nodes {
		if !rowsEqual(rows[i], ref.Row(int(v))) {
			t.Fatalf("node %d: hydrated-checkpoint logits differ from the training model's", v)
		}
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x04
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := core.LoadModelFile(path); err == nil {
		t.Fatal("a bit-flipped weights-only checkpoint would have been served")
	}
}

// readerClosure returns, per layer of an L-layer stack, the rows an update
// of node must reach: layer l's output rows that read, within l+1
// aggregation hops, the node's input row. Built from the graph's adjacency
// alone, not from the engine's plan.
func readerClosure(g *graph.Graph, node int32, L int) [][]int32 {
	readers := make([][]int32, g.N)
	for v := int32(0); v < int32(g.N); v++ {
		for _, u := range g.Neighbors(v) {
			readers[u] = append(readers[u], v)
		}
	}
	in := map[int32]bool{node: true}
	var out [][]int32
	for l := 0; l < L; l++ {
		next := map[int32]bool{}
		for u := range in {
			next[u] = true
			for _, v := range readers[u] {
				next[v] = true
			}
		}
		var rows []int32
		for v := range next {
			rows = append(rows, v)
		}
		out = append(out, rows)
		in = next
	}
	return out
}

// TestCacheCountersAndEviction: the start-up pass is the cache, so a fresh
// engine answers every node without a miss. An update marks its receptive
// field's logit rows stale, and touched counts the distinct hidden rows it
// recomputed plus the rows it newly marked; each stale row is recomputed
// once, on its first request, and then served as a hit.
func TestCacheCountersAndEviction(t *testing.T) {
	ds := testDataset(t, 13)
	ft, ref := trainedModel(t, ds, core.ArchSAGE, 3)
	eng, err := NewEngine(ft.Model, ds.G, ds.Features, 2)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []int32
	for v := 0; v < ds.G.N; v++ {
		nodes = append(nodes, int32(v))
	}
	n := int64(ds.G.N)
	if _, err := eng.Predict(nodes); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Misses != 0 || st.Hits != n || st.Stale != 0 {
		t.Fatalf("a fresh engine should answer every node from its start-up pass: %+v", st)
	}

	reach := readerClosure(ds.G, 5, 3)
	hidden := len(reach[0]) + len(reach[1])
	feat := rampFeatures(ds.FeatureDim(), 1)
	touched, err := eng.UpdateFeature(5, feat)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Stale != len(reach[2]) || st.Evicted != int64(len(reach[2])) || st.Recomputed != int64(hidden) {
		t.Fatalf("update: %+v, want %d stale rows and %d hidden rows recomputed", st, len(reach[2]), hidden)
	}
	if touched != hidden+len(reach[2]) {
		t.Fatalf("update touched %d rows, want %d hidden + %d stale", touched, hidden, len(reach[2]))
	}
	// The same node again: the hidden rows are recomputed again, but every
	// logit row it reaches is already stale, so none is newly marked.
	if touched, err = eng.UpdateFeature(5, feat); err != nil {
		t.Fatal(err)
	}
	if st = eng.Stats(); touched != hidden || st.Stale != len(reach[2]) || st.Evicted != int64(len(reach[2])) {
		t.Fatalf("repeat update touched %d rows (want %d): %+v", touched, hidden, st)
	}

	want := updatedReference(t, 13, ft, map[int32][]float32{5: feat})
	for pass := 0; pass < 2; pass++ {
		rows, err := eng.Predict(nodes)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range nodes {
			if !rowsEqual(rows[i], want.Row(int(v))) {
				t.Fatalf("pass %d node %d: served logits differ from a full recompute on the updated features", pass, v)
			}
		}
		st = eng.Stats()
		if st.Misses != int64(len(reach[2])) || st.Hits != int64(pass+2)*n-int64(len(reach[2])) || st.Stale != 0 {
			t.Fatalf("pass %d: each stale row should miss once, on its first request: %+v", pass, st)
		}
	}
	// The rows the update did not reach are the start-up pass's.
	stale := map[int32]bool{}
	for _, v := range reach[2] {
		stale[v] = true
	}
	if !stale[5] || len(stale) == ds.G.N {
		t.Fatalf("the update reached %d of %d rows", len(stale), ds.G.N)
	}
	for _, v := range nodes {
		if !stale[v] && !rowsEqual(want.Row(int(v)), ref.Row(int(v))) {
			t.Fatalf("node %d is outside the update's reach but its reference moved", v)
		}
	}

	// Out-of-range requests are rejected, not served.
	if _, err := eng.Predict([]int32{int32(ds.G.N)}); err == nil {
		t.Fatal("predict accepted an out-of-range node")
	}
	if _, err := eng.Predict([]int32{-1}); err == nil {
		t.Fatal("predict accepted a negative node")
	}
}

// TestUpdateFeatureMatchesFullRecompute is the incremental-update
// correctness contract: after an update, every served logit row — affected
// or not — must equal a from-scratch full-graph pass over the modified
// features, bit for bit. Covers SAGE (2- and 3-layer receptive fields) and
// GAT (attention re-prep on the changed rows).
func TestUpdateFeatureMatchesFullRecompute(t *testing.T) {
	for _, tc := range []struct {
		arch   core.Arch
		layers int
	}{
		{core.ArchSAGE, 2},
		{core.ArchSAGE, 3},
		{core.ArchGAT, 2},
	} {
		t.Run(string(tc.arch)+"-"+string(rune('0'+tc.layers))+"layer", func(t *testing.T) {
			ds := testDataset(t, 14)
			ft, _ := trainedModel(t, ds, tc.arch, tc.layers)
			eng, err := NewEngine(ft.Model, ds.G, ds.Features, 1024)
			if err != nil {
				t.Fatal(err)
			}
			var nodes []int32
			for v := 0; v < ds.G.N; v++ {
				nodes = append(nodes, int32(v))
			}
			// Every logit row is current after start-up, so a row the
			// update failed to mark stale would be served as it was and
			// fail below.

			// Mutate two nodes' features (one hub-ish, one arbitrary).
			newFeat := rampFeatures(ds.FeatureDim(), 1)
			touched, err := eng.UpdateFeature(5, newFeat)
			if err != nil {
				t.Fatal(err)
			}
			if touched == 0 {
				t.Fatal("update re-embedded nothing")
			}
			neg := rampFeatures(ds.FeatureDim(), -1)
			if _, err := eng.UpdateFeature(200, neg); err != nil {
				t.Fatal(err)
			}

			// From-scratch reference over the modified features: a fresh
			// dataset (same seed), mutated the same way, same weights.
			ref := updatedReference(t, 14, ft, map[int32][]float32{5: newFeat, 200: neg})

			rows, err := eng.Predict(nodes)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range nodes {
				if !rowsEqual(rows[i], ref.Row(int(v))) {
					t.Fatalf("node %d after update: served logits differ from full recompute", v)
				}
			}
			st := eng.Stats()
			if st.Updates != 2 || st.Recomputed == 0 || st.Evicted == 0 {
				t.Fatalf("update stats: %+v", st)
			}
			// The whole point: an update must NOT have recomputed the graph.
			if int(st.Recomputed) >= ds.G.N {
				t.Fatalf("update recomputed %d hidden rows on a %d-node graph — not incremental", st.Recomputed, ds.G.N)
			}

			// Bad updates are rejected without touching state.
			if _, err := eng.UpdateFeature(int32(ds.G.N), newFeat); err == nil {
				t.Fatal("update accepted an out-of-range node")
			}
			if _, err := eng.UpdateFeature(0, newFeat[:1]); err == nil {
				t.Fatal("update accepted a wrong-width feature row")
			}
		})
	}
}
