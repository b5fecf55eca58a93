// Package metrics computes the evaluation scores the paper reports: test
// accuracy for Reddit/ogbn-products and micro-F1 for Yelp, plus a
// convergence recorder used by the Figure 7/9 experiments.
package metrics

import (
	"fmt"

	"repro/internal/tensor"
)

// Accuracy returns the fraction of masked rows whose argmax logit equals the
// label. Ties break to the lowest class index (deterministic first-wins).
// NaN logits never win the argmax, and a row with no comparable value at all
// — every logit NaN — counts as wrong rather than silently predicting class
// 0: a diverged model must read as 0 accuracy, not ~1/nClasses. Returns 0
// when the mask is empty.
func Accuracy(logits *tensor.Matrix, labels []int32, mask []bool) float64 {
	return AccuracyOf(AccuracyCounts(logits, labels, mask))
}

// AccuracyCounts is Accuracy's scoring loop: the number of masked rows
// predicted correctly and the number of masked rows. Counts over disjoint row
// blocks add, which is how partition-parallel evaluation scores the whole
// graph without any rank holding it.
func AccuracyCounts(logits *tensor.Matrix, labels []int32, mask []bool) (correct, total int64) {
	if len(labels) < logits.Rows || len(mask) < logits.Rows {
		panic(fmt.Sprintf("metrics: need %d labels/mask, have %d/%d", logits.Rows, len(labels), len(mask)))
	}
	for i := 0; i < logits.Rows; i++ {
		if !mask[i] {
			continue
		}
		total++
		if best := Argmax(logits.Row(i)); best >= 0 && int32(best) == labels[i] {
			correct++
		}
	}
	return correct, total
}

// Argmax is the prediction rule Accuracy scores: the index of the largest
// logit, where NaN never wins, ties go to the lowest index, and -1 means no
// logit compares (every one is NaN, or the row is empty).
func Argmax(row []float32) int {
	best := -1
	for j, v := range row {
		if v != v { // NaN
			continue
		}
		if best < 0 || v > row[best] {
			best = j
		}
	}
	return best
}

// AccuracyOf turns (summed) AccuracyCounts into the score.
func AccuracyOf(correct, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// MicroF1Counts is the micro-averaged F1 score's scoring loop over masked
// rows of a multi-label problem, a label predicted positive when its logit
// is > 0 (sigmoid > 0.5): true positives, false positives and false
// negatives over the masked rows. Like AccuracyCounts, they add over
// disjoint row blocks; MicroF1Of turns their sums into the score.
func MicroF1Counts(logits, targets *tensor.Matrix, mask []bool) (tp, fp, fn int64) {
	if logits.Rows != targets.Rows || logits.Cols != targets.Cols {
		panic(fmt.Sprintf("metrics: shape mismatch %dx%d vs %dx%d", logits.Rows, logits.Cols, targets.Rows, targets.Cols))
	}
	for i := 0; i < logits.Rows; i++ {
		if !mask[i] {
			continue
		}
		lrow, trow := logits.Row(i), targets.Row(i)
		for j, x := range lrow {
			pred := x > 0
			actual := trow[j] > 0.5
			switch {
			case pred && actual:
				tp++
			case pred && !actual:
				fp++
			case !pred && actual:
				fn++
			}
		}
	}
	return tp, fp, fn
}

// MicroF1Of turns (summed) MicroF1Counts into the micro-averaged F1 score,
// 0 when there are no positives at all.
func MicroF1Of(tp, fp, fn int64) float64 {
	denom := 2*tp + fp + fn
	if denom == 0 {
		return 0
	}
	return float64(2*tp) / float64(denom)
}

// Curve records a score per epoch for convergence plots.
type Curve struct {
	Name   string
	Epochs []int
	Values []float64
}

// Add appends one (epoch, value) observation.
func (c *Curve) Add(epoch int, value float64) {
	c.Epochs = append(c.Epochs, epoch)
	c.Values = append(c.Values, value)
}

// Best returns the maximum recorded value, or 0 if empty.
func (c *Curve) Best() float64 {
	best := 0.0
	for _, v := range c.Values {
		if v > best {
			best = v
		}
	}
	return best
}

// Final returns the last recorded value, or 0 if empty.
func (c *Curve) Final() float64 {
	if len(c.Values) == 0 {
		return 0
	}
	return c.Values[len(c.Values)-1]
}
