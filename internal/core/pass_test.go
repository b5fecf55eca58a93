package core_test

import (
	"runtime"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// probe wraps a model's last layer and keeps a weak pointer to the output of
// each pass it begins: the pass's logits.
type probe struct {
	core.GraphLayer
	logits weak.Pointer[tensor.Matrix]
}

func (p *probe) ForwardBegin(lo *core.Layout, h *tensor.Matrix) *tensor.Matrix {
	out := p.GraphLayer.ForwardBegin(lo, h)
	p.logits = weak.Make(out)
	return out
}

// held is what a trained model must not keep alive once its trainer is gone:
// the last pass's logits and the dataset's features and graph.
type held struct {
	logits, feats weak.Pointer[tensor.Matrix]
	g             weak.Pointer[graph.Graph]
}

// watch wraps m's last layer in a probe and returns its weak pointers to
// ds's features and graph; fill reads the probe's last logits.
func watch(m *core.Model, ds *datagen.Dataset) (*probe, held) {
	last := len(m.LayersL) - 1
	p := &probe{GraphLayer: m.LayersL[last]}
	m.LayersL[last] = p
	return p, held{feats: weak.Make(ds.Features), g: weak.Make(ds.G)}
}

func passDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Name: "pass", Nodes: 500, Communities: 5, AvgDegree: 8,
		IntraFrac: 0.8, DegreeSkew: 2.0, FeatureDim: 12,
		FeatureSignal: 0.5, FeatureNoise: 1.0,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

var passModel = core.ModelConfig{Arch: core.ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 5}

// TestTrainedModelHoldsNoPass: a Model holds its weights, not its last pass.
// Each trainer runs its passes in a state it owns, and a pass that has ended
// leaves no layer bound to it, so once the trainer is dropped its last
// pass's logits, and the dataset it trained on, are garbage, whatever the
// model is kept for (the serving engine keeps one for its whole life).
func TestTrainedModelHoldsNoPass(t *testing.T) {
	for _, tc := range []struct {
		name  string
		train func(t *testing.T) (*core.Model, held)
	}{
		{"full/ending-on-TrainEpoch", func(t *testing.T) (*core.Model, held) {
			ds := passDataset(t)
			ft, err := core.NewFullTrainer(ds, passModel)
			if err != nil {
				t.Fatal(err)
			}
			p, h := watch(ft.Model, ds)
			ft.TrainEpoch()
			ft.Evaluate(ds.TestMask)
			ft.TrainEpoch()
			h.logits = p.logits
			return ft.Model, h
		}},
		{"full/ending-on-Evaluate", func(t *testing.T) (*core.Model, held) {
			ds := passDataset(t)
			ft, err := core.NewFullTrainer(ds, passModel)
			if err != nil {
				t.Fatal(err)
			}
			p, h := watch(ft.Model, ds)
			ft.TrainEpoch()
			ft.Evaluate(ds.TestMask)
			h.logits = p.logits
			return ft.Model, h
		}},
		{"minibatch", func(t *testing.T) (*core.Model, held) {
			ds := passDataset(t)
			s := sampling.NewNeighborSampler(ds.G, ds.TrainMask, 64, 5, 2, 9)
			mt, err := sampling.NewMinibatchTrainer(ds, passModel, s)
			if err != nil {
				t.Fatal(err)
			}
			p, h := watch(mt.Model, ds)
			mt.TrainStep()
			mt.Evaluate(ds.TestMask)
			mt.TrainStep()
			mt.Evaluate(ds.TestMask)
			h.logits = p.logits
			return mt.Model, h
		}},
		{"parallel-rank", func(t *testing.T) (*core.Model, held) {
			ds := passDataset(t)
			parts, err := (&partition.Metis{Seed: 1}).Partition(ds.G, 2)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := core.BuildTopology(ds.G, parts, 2)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := core.NewParallelTrainer(ds, topo, core.ParallelConfig{Model: passModel, P: 0.5, SampleSeed: 7})
			if err != nil {
				t.Fatal(err)
			}
			m := pt.Ranks[0].Model
			p, h := watch(m, ds)
			pt.TrainEpoch()
			pt.Evaluate(ds.TestMask)
			pt.TrainEpoch()
			h.logits = p.logits
			return m, h
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, h := tc.train(t)
			if h.logits.Value() == nil {
				t.Fatal("no pass was probed")
			}
			runtime.GC()
			for _, c := range []struct {
				what  string
				alive bool
			}{
				{"the last pass's logits", h.logits.Value() != nil},
				{"the dataset's features", h.feats.Value() != nil},
				{"the dataset's graph", h.g.Value() != nil},
			} {
				if c.alive {
					t.Errorf("the trained model keeps %s alive after its trainer is gone", c.what)
				}
			}
			runtime.KeepAlive(m)
		})
	}
}
