package sampling

import (
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// MinibatchTrainer trains a model with any subgraph Sampler, mirroring how
// the OGB reference implementations run the sampling baselines the paper
// compares against in Tables 4, 5, 9 and 11. Sampling time is measured
// separately from compute time so Table 12's overhead percentages can be
// reproduced.
type MinibatchTrainer struct {
	DS      *datagen.Dataset
	Model   *core.Model
	Opt     *optim.Adam
	Sampler Sampler

	SampleTime  time.Duration
	ComputeTime time.Duration
	eval        fullEval

	// Trainer-owned batch scratch, sized to the largest batch seen and
	// reused — the same layer-owned-scratch discipline RankTrainer's epoch
	// engine runs with, so a steady-state TrainStep's only allocations are
	// the sampler's own batch assembly. lay is the batch graph's layout,
	// rebuilt in place per batch; loss holds the softmax head's row slots.
	lay         core.Layout
	featsBuf    *tensor.Matrix
	labelMatBuf *tensor.Matrix
	gradBuf     *tensor.Matrix
	labelsBuf   []int32
	loss        nn.SoftmaxLoss
}

// NewMinibatchTrainer builds a trainer around the given sampler.
func NewMinibatchTrainer(ds *datagen.Dataset, cfg core.ModelConfig, s Sampler) (*MinibatchTrainer, error) {
	if err := ds.CheckTrainLabels(); err != nil {
		return nil, err
	}
	model, err := core.NewModel(cfg, ds.FeatureDim(), ds.NumClasses)
	if err != nil {
		return nil, err
	}
	return &MinibatchTrainer{
		DS:      ds,
		Model:   model,
		Opt:     optim.NewAdam(cfg.LR),
		Sampler: s,
	}, nil
}

// TrainStep samples one batch and applies one optimizer step, returning the
// batch loss.
func (t *MinibatchTrainer) TrainStep() float64 {
	ss := time.Now()
	batch := t.Sampler.Sample()
	t.SampleTime += time.Since(ss)

	cs := time.Now()
	defer func() { t.ComputeTime += time.Since(cs) }()

	feats := tensor.EnsureMat(&t.featsBuf, len(batch.Nodes), t.DS.Features.Cols)
	tensor.GatherRowsInto(feats, t.DS.Features, batch.Nodes)
	var labels []int32
	var labelMatrix *tensor.Matrix
	if t.DS.MultiLabel {
		labelMatrix = tensor.EnsureMat(&t.labelMatBuf, len(batch.Nodes), t.DS.LabelMatrix.Cols)
		tensor.GatherRowsInto(labelMatrix, t.DS.LabelMatrix, batch.Nodes)
	} else {
		labels = tensor.EnsureI32(&t.labelsBuf, len(batch.Nodes))
		for i, v := range batch.Nodes {
			labels[i] = t.DS.Labels[v]
		}
	}
	h := t.Model.Forward(t.lay.Build(batch.G), feats, true)
	d := tensor.EnsureMat(&t.gradBuf, h.Rows, h.Cols)
	loss := core.LossInto(&t.loss, d, t.DS.MultiLabel, h, labels, labelMatrix, batch.TargetMask, 0)
	t.Model.ZeroGrad()
	t.Model.Backward(d)
	t.Opt.Step(t.Model.Params(), t.Model.Grads())
	return loss
}

// TrainEpoch runs BatchesPerEpoch steps and returns the mean batch loss.
func (t *MinibatchTrainer) TrainEpoch() float64 {
	n := t.Sampler.BatchesPerEpoch()
	var sum float64
	for i := 0; i < n; i++ {
		sum += t.TrainStep()
	}
	return sum / float64(n)
}

// Evaluate scores the model with exact full-graph inference on mask.
func (t *MinibatchTrainer) Evaluate(mask []bool) float64 {
	return t.eval.score(t.DS, t.Model, mask)
}

// fullEval is exact full-graph inference for a model that trains on
// per-batch (or per-epoch) graphs: the full graph is static, so its layout is
// built once, on first use.
type fullEval struct{ lay core.Layout }

func (e *fullEval) score(ds *datagen.Dataset, m *core.Model, mask []bool) float64 {
	if e.lay.G != ds.G {
		e.lay.Build(ds.G)
	}
	return core.Score(ds, m.Forward(&e.lay, ds.Features, false), mask)
}

// OverheadFraction returns sampling time / (sampling + compute) time, the
// quantity Table 12 reports.
func (t *MinibatchTrainer) OverheadFraction() float64 {
	total := t.SampleTime + t.ComputeTime
	if total == 0 {
		return 0
	}
	return float64(t.SampleTime) / float64(total)
}
