package core

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// randomGraph draws an undirected graph on n nodes from m random edges.
func randomGraph(n, m int, rng *tensor.RNG) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// relabeled is g with node v renamed perm[v]: the same node and edge counts
// and degree multiset, wired differently.
func relabeled(g *graph.Graph, perm []int32) *graph.Graph {
	b := graph.NewBuilder(g.N)
	for v := int32(0); v < int32(g.N); v++ {
		for _, u := range g.Neighbors(v) {
			b.AddEdge(perm[v], perm[u])
		}
	}
	return b.Build()
}

// TestLayoutBuild pins the one builder of a pass's layout. An in-place
// rebuild equals a layout made from scratch for every graph in a
// grow/shrink/grow sequence, and allocates nothing once warm. A model that
// alternates between two layouts — full-graph evaluation between minibatch
// steps — computes over each exactly what a fresh model with the same weights
// does, so the same bits each time it returns to one.
func TestLayoutBuild(t *testing.T) {
	rng := tensor.NewRNG(31)

	t.Run("rebuild", func(t *testing.T) {
		graphs := []*graph.Graph{
			randomGraph(300, 1500, rng),
			randomGraph(900, 6000, rng),
			randomGraph(120, 200, rng),
			randomGraph(1000, 7000, rng),
		}
		var lo Layout
		for i, g := range graphs {
			if lo.Build(g) != &lo {
				t.Fatal("Build does not return its receiver")
			}
			want := graph.NewAggIndex(g)
			if lo.G != g || lo.NOut != g.N || lo.HaloAt != nil || lo.HaloRow != nil {
				t.Fatalf("graph %d: layout G=%p NOut=%d HaloAt=%v HaloRow=%v, want the dense layout of %p (%d rows)",
					i, lo.G, lo.NOut, lo.HaloAt, lo.HaloRow, g, g.N)
			}
			got := &lo.Agg
			if !slices.Equal(got.Chunks, want.Chunks) || !slices.Equal(got.IncIndptr, want.IncIndptr) ||
				!slices.Equal(got.IncSrc, want.IncSrc) || !slices.Equal(got.IncChunks, want.IncChunks) {
				t.Fatalf("graph %d (%d nodes): rebuilt plan differs from graph.NewAggIndex", i, g.N)
			}
			if !slices.Equal(got.ChunksFor(128), want.ChunksFor(128)) {
				t.Fatalf("graph %d: rebuilt plan's weighted chunks are stale", i)
			}
			if !slices.Equal(lo.InvDeg, nn.InvDegrees(g)) {
				t.Fatalf("graph %d: rebuilt normalizer differs from nn.InvDegrees", i)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, g := range graphs {
				lo.Build(g)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state Build allocates %.1f objects per grow/shrink/grow cycle, want 0", allocs)
		}
	})

	t.Run("alternation", func(t *testing.T) {
		a := randomGraph(400, 2400, rng)
		// Same node and edge counts, so a pass holding a's plan over b (or
		// b's over a) passes every size check and gathers over the wrong
		// transposed index.
		b := relabeled(a, rng.Perm(a.N))
		var la, lb Layout
		la.Build(a)
		lb.Build(b)
		const in = 12
		x := tensor.New(a.N, in)
		tensor.GaussianInit(x, 1, rng)
		for _, arch := range []Arch{ArchSAGE, ArchGAT} {
			t.Run(string(arch), func(t *testing.T) {
				model := func() *Model {
					m, err := NewModel(ModelConfig{Arch: arch, Layers: 3, Hidden: 16, LR: 0.01, Seed: 5}, in, 4)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				// One forward and backward in ps: the logits, and the
				// parameter gradients, whose backward gathers over the plan.
				pass := func(m *Model, ps *Pass, lo *Layout) (logits, grads []float32) {
					m.ZeroGrad()
					out := m.Forward(ps, lo, x, false)
					d := tensor.New(out.Rows, out.Cols)
					d.CopyFrom(out)
					m.Backward(ps, d)
					return slices.Clone(out.Data), slices.Clone(m.GradSlab())
				}
				m, ps := model(), new(Pass)
				var logits [3][]float32
				for i, lo := range []*Layout{&la, &lb, &la} {
					gotLogits, gotGrads := pass(m, ps, lo)
					wantLogits, wantGrads := pass(model(), new(Pass), lo)
					if !slices.Equal(gotLogits, wantLogits) || !slices.Equal(gotGrads, wantGrads) {
						t.Fatalf("pass %d (layout %c) differs from a fresh model's pass over the same layout", i, "ABA"[i])
					}
					logits[i] = gotLogits
				}
				if slices.Equal(logits[0], logits[1]) {
					t.Fatal("the two layouts give the same logits: the alternation tests nothing")
				}
				if !slices.Equal(logits[2], logits[0]) {
					t.Fatal("logits over layout A changed after a pass over layout B")
				}
			})
		}
	})
}
