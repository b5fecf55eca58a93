package nn

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// stackLoss runs a 2-layer SAGE stack with an interleaved dropout in eval
// mode and returns the CE loss — used for a full-chain gradient check, which
// catches errors that single-layer checks cannot (e.g. wrong dH row ranges
// between layers).
func stackLoss(l1, l2 *SAGEConv, g *graph.Graph, h *tensor.Matrix, labels []int32, mask []bool, invDeg []float32) float64 {
	h1 := l1.Forward(g, h, g.N, invDeg)
	h2 := l2.Forward(g, h1, g.N, invDeg)
	loss, _ := SoftmaxCrossEntropy(h2, labels, mask)
	return loss
}

func TestTwoLayerStackGradientCheck(t *testing.T) {
	rng := tensor.NewRNG(21)
	g := randGraph(rng, 9, 20)
	h := tensor.New(9, 3)
	tensor.GaussianInit(h, 1, rng)
	l1 := newSAGE(g, 3, 5, ReLUAct, rng)
	l2 := newSAGE(g, 5, 4, NoAct, rng)
	labels := []int32{0, 1, 2, 3, 0, 1, 2, 3, 0}
	mask := make([]bool, 9)
	for i := range mask {
		mask[i] = i%2 == 0
	}
	invDeg := InvDegrees(g)

	h1 := l1.Forward(g, h, g.N, invDeg)
	h2 := l2.Forward(g, h1, g.N, invDeg)
	_, dOut := SoftmaxCrossEntropy(h2, labels, mask)
	l1.ZeroGrad()
	l2.ZeroGrad()
	d1 := l2.Backward(dOut)
	_ = l1.Backward(d1)

	const eps = 1e-2
	check := func(name string, param, grad *tensor.Matrix, stride int) {
		for i := 0; i < len(param.Data); i += stride {
			orig := param.Data[i]
			param.Data[i] = orig + eps
			lp := stackLoss(l1, l2, g, h, labels, mask, invDeg)
			param.Data[i] = orig - eps
			lm := stackLoss(l1, l2, g, h, labels, mask, invDeg)
			param.Data[i] = orig
			fd := (lp - lm) / (2 * eps)
			if math.Abs(fd-float64(grad.Data[i])) > 3e-2*(1+math.Abs(fd)) {
				t.Fatalf("%s[%d]: fd %v vs analytic %v", name, i, fd, grad.Data[i])
			}
		}
	}
	check("W1", l1.W, l1.DW, 4)
	check("B1", l1.B, l1.DB, 1)
	check("W2", l2.W, l2.DW, 3)
}

func TestGradAccumulationAcrossBackwardCalls(t *testing.T) {
	// Two backward passes without ZeroGrad must accumulate (the trainer
	// relies on Zero+single accumulate; pin the accumulate semantics).
	rng := tensor.NewRNG(22)
	g := randGraph(rng, 6, 12)
	h := tensor.New(6, 3)
	tensor.GaussianInit(h, 1, rng)
	l := newSAGE(g, 3, 2, NoAct, rng)
	out := l.Forward(g, h, 6, InvDegrees(g))
	dOut := tensor.New(out.Rows, out.Cols)
	dOut.Fill(1)
	l.ZeroGrad()
	l.Backward(dOut)
	once := l.DW.Clone()
	l.Backward(dOut)
	twice := l.DW.Clone()
	once.Scale(2)
	if !once.Equal(twice, 1e-5) {
		t.Fatal("gradients must accumulate across Backward calls")
	}
}

func TestDropoutZeroRateIsIdentityInTraining(t *testing.T) {
	rng := tensor.NewRNG(23)
	d := NewDropout(0, rng)
	x := tensor.New(4, 4)
	tensor.GaussianInit(x, 1, rng)
	out := dropForward(d, x, true)
	if !out.Equal(x, 0) {
		t.Fatal("rate-0 dropout must be identity even in training")
	}
}

func TestNewDropoutRejectsBadRate(t *testing.T) {
	rng := tensor.NewRNG(24)
	for _, rate := range []float32{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rate %v must panic", rate)
				}
			}()
			NewDropout(rate, rng)
		}()
	}
}

func TestSAGEConvRejectsBadShapes(t *testing.T) {
	rng := tensor.NewRNG(25)
	g := randGraph(rng, 4, 6)
	l := newSAGE(g, 3, 2, NoAct, rng)
	cases := []func(){
		func() { l.Forward(g, tensor.New(4, 5), 4, make([]float32, 4)) }, // wrong dim
		func() { l.Forward(g, tensor.New(5, 3), 5, make([]float32, 5)) }, // rows != g.N
		func() { l.Forward(g, tensor.New(4, 3), 5, make([]float32, 5)) }, // nOut > rows
		func() { l.Forward(g, tensor.New(4, 3), 4, make([]float32, 2)) }, // short invDeg
		func() { l.Forward(g, tensor.New(4, 3), 2, make([]float32, 4)) }, // input-only rows with edges
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d must panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestGATConvRejectsBadShapes(t *testing.T) {
	rng := tensor.NewRNG(26)
	g := randGraph(rng, 4, 6)
	l := NewGATConv(3, 2, NoAct, rng)
	l.SetAgg(graph.NewAggIndex(g))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Forward(g, tensor.New(4, 5), 4)
}
