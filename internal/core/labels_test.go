package core

import (
	"strings"
	"testing"

	"repro/internal/datagen"
)

// withLabel returns a copy of ds whose node v carries label y (train marks
// whether v is a training node); everything else is shared.
func withLabel(ds *datagen.Dataset, v int, y int32, train bool) *datagen.Dataset {
	c := *ds
	c.Labels = append([]int32(nil), ds.Labels...)
	c.TrainMask = append([]bool(nil), ds.TrainMask...)
	c.Labels[v], c.TrainMask[v] = y, train
	return &c
}

// TestTrainersRejectOutOfRangeLabels: a single-label dataset whose training
// nodes carry a label outside [0, NumClasses) is refused at construction by
// every trainer that runs the softmax loss, with an error naming the node
// and the label — the loss would index past a logit row on a pool worker.
// A bad label off the training mask, and any label of a multi-label
// dataset, are not read by the loss and pass.
func TestTrainersRejectOutOfRangeLabels(t *testing.T) {
	ds := testDataset(t, 3)
	topo := testTopology(t, ds, 2)
	cfg := ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 1}
	ml := multiLabelDataset(t)
	ml.Labels = make([]int32, ml.G.N)
	for i := range ml.Labels {
		ml.Labels[i] = -1
	}
	const v = 123
	cases := []struct {
		name string
		ds   *datagen.Dataset
		want string // error substring; "" accepts
	}{
		{"negative", withLabel(ds, v, -1, true), "training node 123 has label -1, outside [0,6)"},
		{"num classes", withLabel(ds, v, int32(ds.NumClasses), true), "training node 123 has label 6, outside [0,6)"},
		{"far out", withLabel(ds, v, 1<<30, true), "training node 123 has label 1073741824"},
		{"off the training mask", withLabel(ds, v, -7, false), ""},
		{"in range", withLabel(ds, v, int32(ds.NumClasses-1), true), ""},
		{"multi-label", ml, ""},
	}
	for _, tc := range cases {
		topo := topo
		if tc.ds.G != ds.G {
			topo = testTopology(t, tc.ds, 2)
		}
		build := map[string]func() error{
			"NewRankTrainer": func() error { _, err := NewRankTrainer(tc.ds, topo, cfg, 1); return err },
			"NewFullTrainer": func() error { _, err := NewFullTrainer(tc.ds, cfg.Model); return err },
		}
		for ctor, f := range build {
			err := f()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s %s: %v, want accepted", ctor, tc.name, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s %s: error %v, want one containing %q", ctor, tc.name, err, tc.want)
			}
		}
	}
}
