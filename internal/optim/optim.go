// Package optim provides the optimizer used in the paper's experiments:
// Adam (all four datasets use Adam per Section 4). It updates parameter
// matrices in place from gradient matrices of identical shape.
package optim

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR      float32
	Beta1   float32
	Beta2   float32
	Epsilon float32
	t       int
	m, v    []*tensor.Matrix
}

// NewAdam returns Adam with the standard defaults (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one update. params[i] and grads[i] must have equal shape and
// identity must be stable across calls (state is keyed by index).
func (a *Adam) Step(params, grads []*tensor.Matrix) {
	checkAligned(params, grads)
	if a.m == nil {
		a.m = zerosLike(params)
		a.v = zerosLike(params)
	}
	a.t++
	b1t := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	b2t := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for i, p := range params {
		g := grads[i]
		m, v := a.m[i], a.v[i]
		for j, gj := range g.Data {
			m.Data[j] = a.Beta1*m.Data[j] + (1-a.Beta1)*gj
			v.Data[j] = a.Beta2*v.Data[j] + (1-a.Beta2)*gj*gj
			mh := m.Data[j] / b1t
			vh := v.Data[j] / b2t
			p.Data[j] -= a.LR * mh / (float32(math.Sqrt(float64(vh))) + a.Epsilon)
		}
	}
}

// StepCount returns the number of updates applied so far — the
// bias-correction time step t. Part of the optimizer's resumable state:
// restoring moments without t would re-warm the bias correction and diverge
// from an uninterrupted run.
func (a *Adam) StepCount() int { return a.t }

// SetStepCount overrides the bias-correction time step (checkpoint restore,
// paired with restoring the moment matrices via Moments).
func (a *Adam) SetStepCount(t int) { a.t = t }

// Moments returns the first and second moment accumulators aligned with
// params, materializing zeroed state on first use so a freshly constructed
// optimizer can be checkpointed or restored before its first Step. The
// returned matrices are the live state: writing into them (checkpoint load)
// changes the optimizer.
func (a *Adam) Moments(params []*tensor.Matrix) (m, v []*tensor.Matrix) {
	if a.m == nil {
		a.m = zerosLike(params)
		a.v = zerosLike(params)
	}
	if len(a.m) != len(params) {
		panic(fmt.Sprintf("optim: Adam has state for %d params, asked about %d", len(a.m), len(params)))
	}
	return a.m, a.v
}

func checkAligned(params, grads []*tensor.Matrix) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("optim: %d params vs %d grads", len(params), len(grads)))
	}
	for i := range params {
		if params[i].Rows != grads[i].Rows || params[i].Cols != grads[i].Cols {
			panic(fmt.Sprintf("optim: param %d shape %dx%d vs grad %dx%d",
				i, params[i].Rows, params[i].Cols, grads[i].Rows, grads[i].Cols))
		}
	}
}

func zerosLike(params []*tensor.Matrix) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		out[i] = tensor.New(p.Rows, p.Cols)
	}
	return out
}
