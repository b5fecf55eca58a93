package core

import (
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// FullTrainer trains a model on the whole graph in a single process — the
// exact full-graph reference that BNS-GCN with p=1 must match. It runs each
// layer through the Model's stages over the dense layout, as the
// sampling-based baselines' MinibatchTrainer (internal/sampling) does over
// each batch's. Its passes run in its own Pass, so the Model it trains keeps
// nothing of them once a pass has ended.
type FullTrainer struct {
	DS    *datagen.Dataset
	Model *Model
	Opt   *optim.Adam
	lay   Layout
	pass  Pass
	// The loss's scratch, reused every epoch: the logit gradient and the
	// softmax head's row slots.
	grad *tensor.Matrix
	loss nn.SoftmaxLoss
}

// NewFullTrainer builds the reference trainer with an Adam optimizer. The
// full graph is static, so its layout is built once, here.
func NewFullTrainer(ds *datagen.Dataset, cfg ModelConfig) (*FullTrainer, error) {
	if err := ds.CheckTrainLabels(); err != nil {
		return nil, err
	}
	model, err := NewModel(cfg, ds.FeatureDim(), ds.NumClasses)
	if err != nil {
		return nil, err
	}
	t := &FullTrainer{DS: ds, Model: model, Opt: optim.NewAdam(cfg.LR)}
	t.lay.Build(ds.G)
	return t, nil
}

// Forward runs the model over the full graph and returns logits for every
// node, valid until the trainer's next pass. train enables dropout and
// leaves the pass open for the backward; an inference pass ends here.
func (t *FullTrainer) Forward(train bool) *tensor.Matrix {
	if !train {
		return t.Model.Infer(&t.pass, &t.lay, t.DS.Features)
	}
	return t.Model.Forward(&t.pass, &t.lay, t.DS.Features, true)
}

// TrainEpoch runs one full-graph training step and returns the train loss.
func (t *FullTrainer) TrainEpoch() float64 {
	logits := t.Forward(true)
	d := tensor.EnsureMat(&t.grad, logits.Rows, logits.Cols)
	loss := LossInto(&t.loss, d, t.DS.MultiLabel, logits, t.DS.Labels, t.DS.LabelMatrix, t.DS.TrainMask, 0)
	t.Model.ZeroGrad()
	t.Model.Backward(&t.pass, d)
	t.Opt.Step(t.Model.Params(), t.Model.Grads())
	return loss
}

// Evaluate returns the score (accuracy or micro-F1) on the given mask using
// exact full-graph inference.
func (t *FullTrainer) Evaluate(mask []bool) float64 {
	logits := t.Forward(false)
	return Score(t.DS, logits, mask)
}

// Score computes the dataset-appropriate metric over masked rows of logits.
func Score(ds *datagen.Dataset, logits *tensor.Matrix, mask []bool) float64 {
	return scoreOf(ds.MultiLabel, scoreCounts(ds.MultiLabel, logits, ds.Labels, ds.LabelMatrix, mask))
}

// scoreCounts returns the integer sums the metric is a ratio of, over the
// masked rows of logits: {correct, total} for accuracy, {TP, FP, FN} for a
// multi-label dataset's micro-F1. They add over disjoint row blocks, so the
// sum of every rank's counts over its inner rows, through scoreOf, is exactly
// the full graph's score.
func scoreCounts(multiLabel bool, logits *tensor.Matrix, labels []int32, labelMatrix *tensor.Matrix, mask []bool) (c [3]int64) {
	if multiLabel {
		c[0], c[1], c[2] = metrics.MicroF1Counts(logits, labelMatrix, mask)
	} else {
		c[0], c[1] = metrics.AccuracyCounts(logits, labels, mask)
	}
	return c
}

// scoreOf is the score scoreCounts' sums stand for.
func scoreOf(multiLabel bool, c [3]int64) float64 {
	if multiLabel {
		return metrics.MicroF1Of(c[0], c[1], c[2])
	}
	return metrics.AccuracyOf(c[0], c[1])
}
