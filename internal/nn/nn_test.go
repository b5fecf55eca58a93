package nn

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// lineGraph returns the path 0-1-2-3-4.
func lineGraph() *graph.Graph {
	b := graph.NewBuilder(5)
	for i := int32(0); i < 4; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

func randGraph(rng *tensor.RNG, n, edges int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

func TestReLUForwardBackward(t *testing.T) {
	pre := tensor.NewFrom(1, 4, []float32{-1, 0, 2, -3})
	out := pre.Clone()
	activate(out.Data, ReLUAct)
	want := []float32{0, 0, 2, 0}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("relu[%d] = %v", i, out.Data[i])
		}
	}
	d := tensor.NewFrom(1, 4, []float32{1, 1, 1, 1})
	activationGrad(ReLUAct, d, out)
	wantG := []float32{0, 0, 1, 0}
	for i, w := range wantG {
		if d.Data[i] != w {
			t.Fatalf("relu grad[%d] = %v", i, d.Data[i])
		}
	}
}

// TestReLUBranchlessMatchesBranchy: the bit-select ReLU and its gradient give
// the bits of the branchy forms they replaced, on −0, ±NaN (payloads too),
// ±Inf, denormals and random data — the gradient read from the activated
// output, as the layers read it, masking exactly where the input is ≤ 0.
func TestReLUBranchlessMatchesBranchy(t *testing.T) {
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00002), math.Float32frombits(0x7f800003),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32}
	rng := tensor.NewRNG(29)
	pre := tensor.New(1, 4096)
	for i := range pre.Data {
		pre.Data[i] = 2*rng.Float32() - 1
		if i < len(special)*len(special) {
			pre.Data[i] = special[i/len(special)]
		}
	}
	dOut := tensor.New(1, len(pre.Data))
	for i := range dOut.Data {
		dOut.Data[i] = 2*rng.Float32() - 1
		if i < len(special)*len(special) {
			dOut.Data[i] = special[i%len(special)]
		}
	}
	act := pre.Clone()
	activate(act.Data, ReLUAct)
	out := act.Data
	grad := dOut.Clone()
	activationGrad(ReLUAct, grad, act)
	for i, x := range pre.Data {
		wantOut, wantGrad := x, dOut.Data[i]
		if x < 0 {
			wantOut = 0
		}
		if x <= 0 {
			wantGrad = 0
		}
		if math.Float32bits(out[i]) != math.Float32bits(wantOut) {
			t.Fatalf("relu(%#x) = %#x, want %#x", math.Float32bits(x), math.Float32bits(out[i]), math.Float32bits(wantOut))
		}
		if math.Float32bits(grad.Data[i]) != math.Float32bits(wantGrad) {
			t.Fatalf("relu grad at %#x of %#x = %#x, want %#x", math.Float32bits(x), math.Float32bits(dOut.Data[i]),
				math.Float32bits(grad.Data[i]), math.Float32bits(wantGrad))
		}
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDropout(0.5, rng)
	x := tensor.New(50, 50)
	x.Fill(1)
	out := dropForward(d, x, true)
	zeros, twos := 0, 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("dropout value %v, want 0 or 2", v)
		}
	}
	if zeros < 1000 || twos < 1000 {
		t.Fatalf("dropout counts off: %d zeros, %d twos", zeros, twos)
	}
	// Eval mode is identity (same backing object allowed).
	ev := dropForward(d, x, false)
	if !ev.Equal(x, 0) {
		t.Fatal("eval dropout must be identity")
	}
	if g := dropBackward(d, x); !g.Equal(x, 0) {
		t.Fatal("eval dropout backward must be identity")
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	rng := tensor.NewRNG(2)
	d := NewDropout(0.3, rng)
	x := tensor.New(10, 10)
	x.Fill(1)
	out := dropForward(d, x, true)
	g := tensor.New(10, 10)
	g.Fill(1)
	back := dropBackward(d, g)
	// Gradient must be nonzero exactly where output is nonzero.
	for i := range out.Data {
		if (out.Data[i] == 0) != (back.Data[i] == 0) {
			t.Fatal("dropout backward mask mismatch")
		}
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	logits := tensor.NewFrom(2, 2, []float32{0, 0, 100, 0})
	labels := []int32{0, 0}
	mask := []bool{true, true}
	loss, grad := SoftmaxCrossEntropy(logits, labels, mask)
	// Row 0: uniform -> ln 2; row 1: confident correct -> ~0.
	if math.Abs(loss-math.Ln2/2) > 1e-4 {
		t.Fatalf("loss = %v, want %v", loss, math.Ln2/2)
	}
	// Row gradient sums to 0.
	if s := float64(grad.Row(0)[0] + grad.Row(0)[1]); math.Abs(s) > 1e-6 {
		t.Fatalf("grad row sum %v", s)
	}
}

func TestSoftmaxCrossEntropyMaskedRowsZero(t *testing.T) {
	logits := tensor.NewFrom(2, 3, []float32{1, 2, 3, 4, 5, 6})
	_, grad := SoftmaxCrossEntropy(logits, []int32{0, 1}, []bool{false, true})
	for _, v := range grad.Row(0) {
		if v != 0 {
			t.Fatal("masked row must have zero gradient")
		}
	}
}

func TestSoftmaxCrossEntropyGradFiniteDiff(t *testing.T) {
	rng := tensor.NewRNG(3)
	logits := tensor.New(4, 5)
	tensor.GaussianInit(logits, 1, rng)
	labels := []int32{1, 4, 0, 2}
	mask := []bool{true, false, true, true}
	_, grad := SoftmaxCrossEntropy(logits, labels, mask)
	const eps = 1e-3
	for i := 0; i < len(logits.Data); i += 3 {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels, mask)
		logits.Data[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels, mask)
		logits.Data[i] = orig
		fd := (lp - lm) / (2 * eps)
		if math.Abs(fd-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("elem %d: fd %v vs analytic %v", i, fd, grad.Data[i])
		}
	}
}

func TestSigmoidBCEGradFiniteDiff(t *testing.T) {
	rng := tensor.NewRNG(4)
	logits := tensor.New(3, 4)
	tensor.GaussianInit(logits, 1, rng)
	targets := tensor.New(3, 4)
	for i := range targets.Data {
		if rng.Float32() < 0.4 {
			targets.Data[i] = 1
		}
	}
	mask := []bool{true, true, false}
	_, grad := SigmoidBCE(logits, targets, mask)
	const eps = 1e-3
	for i := 0; i < len(logits.Data); i += 2 {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SigmoidBCE(logits, targets, mask)
		logits.Data[i] = orig - eps
		lm, _ := SigmoidBCE(logits, targets, mask)
		logits.Data[i] = orig
		fd := (lp - lm) / (2 * eps)
		if math.Abs(fd-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("elem %d: fd %v vs analytic %v", i, fd, grad.Data[i])
		}
	}
}

func TestLossEmptyMask(t *testing.T) {
	logits := tensor.New(2, 2)
	loss, grad := SoftmaxCrossEntropy(logits, []int32{0, 0}, []bool{false, false})
	if loss != 0 || grad.MaxAbs() != 0 {
		t.Fatal("empty mask must give zero loss and grad")
	}
	loss, grad = SigmoidBCE(logits, tensor.New(2, 2), []bool{false, false})
	if loss != 0 || grad.MaxAbs() != 0 {
		t.Fatal("empty mask BCE must give zero loss and grad")
	}
}

// sageLoss runs a 1-layer SAGE + CE loss; used for finite-difference checks.
func sageLoss(l *SAGEConv, g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32, labels []int32, mask []bool) float64 {
	out := l.Forward(g, h, nOut, invDeg)
	loss, _ := SoftmaxCrossEntropy(out, labels, mask)
	return loss
}

func TestSAGEConvGradientCheck(t *testing.T) {
	rng := tensor.NewRNG(5)
	nOut := 6 // rows 6,7 are halo rows: read by the aggregation, no edges of their own
	g := localGraph(rng, nOut, 2, 3, 0.3)
	h := tensor.New(8, 3)
	tensor.GaussianInit(h, 1, rng)
	l := newSAGE(g, 3, 4, ReLUAct, rng)
	invDeg := InvDegrees(g)
	labels := []int32{0, 1, 2, 3, 0, 1}
	mask := []bool{true, true, true, false, true, true}

	out := l.Forward(g, h, nOut, invDeg)
	_, dOut := SoftmaxCrossEntropy(out, labels, mask)
	l.ZeroGrad()
	dH := l.Backward(dOut)

	const eps = 1e-2
	check := func(name string, param *tensor.Matrix, grad *tensor.Matrix, stride int) {
		for i := 0; i < len(param.Data); i += stride {
			orig := param.Data[i]
			param.Data[i] = orig + eps
			lp := sageLoss(l, g, h, nOut, invDeg, labels, mask)
			param.Data[i] = orig - eps
			lm := sageLoss(l, g, h, nOut, invDeg, labels, mask)
			param.Data[i] = orig
			fd := (lp - lm) / (2 * eps)
			if math.Abs(fd-float64(grad.Data[i])) > 2e-2*(1+math.Abs(fd)) {
				t.Fatalf("%s[%d]: fd %v vs analytic %v", name, i, fd, grad.Data[i])
			}
		}
	}
	check("W", l.W, l.DW, 3)
	check("B", l.B, l.DB, 1)
	check("H", h, dH, 2)
}

func TestSAGEConvHaloRowsGetGradient(t *testing.T) {
	rng := tensor.NewRNG(6)
	// Inner node 0 aggregates halo node 2 -> halo must receive gradient.
	// Partition-shaped: the halo row is read, but has no edges of its own.
	g := &graph.Graph{N: 3, Indptr: []int64{0, 2, 3, 3}, Indices: []int32{1, 2, 0}}
	h := tensor.New(3, 2)
	tensor.GaussianInit(h, 1, rng)
	l := newSAGE(g, 2, 2, NoAct, rng)
	out := l.Forward(g, h, 2, InvDegrees(g))
	if out.Rows != 2 {
		t.Fatalf("out rows %d", out.Rows)
	}
	dOut := tensor.New(2, 2)
	dOut.Fill(1)
	l.ZeroGrad()
	dH := l.Backward(dOut)
	if dH.Rows != 3 {
		t.Fatalf("dH rows %d, want 3 (including halo)", dH.Rows)
	}
	var haloNorm float32
	for _, v := range dH.Row(2) {
		haloNorm += v * v
	}
	if haloNorm == 0 {
		t.Fatal("halo row received no gradient")
	}
}

func TestSAGEConvMeanAggregation(t *testing.T) {
	// Identity-ish check: with W = [I;0] (z passthrough), output = mean of
	// neighbors.
	rng := tensor.NewRNG(7)
	g := lineGraph()
	h := tensor.New(5, 2)
	for v := 0; v < 5; v++ {
		h.Set(v, 0, float32(v))
		h.Set(v, 1, 1)
	}
	l := newSAGE(g, 2, 2, NoAct, rng)
	l.W.Zero()
	l.B.Zero()
	l.W.Set(0, 0, 1) // z[0] -> out[0]
	l.W.Set(1, 1, 1) // z[1] -> out[1]
	out := l.Forward(g, h, 5, InvDegrees(g))
	// Node 2 neighbors {1,3}: mean = (1+3)/2 = 2 in dim0, 1 in dim1.
	if math.Abs(float64(out.At(2, 0)-2)) > 1e-6 || math.Abs(float64(out.At(2, 1)-1)) > 1e-6 {
		t.Fatalf("node 2 aggregation = (%v,%v), want (2,1)", out.At(2, 0), out.At(2, 1))
	}
	// Node 0 neighbors {1}: mean = 1.
	if math.Abs(float64(out.At(0, 0)-1)) > 1e-6 {
		t.Fatalf("node 0 aggregation = %v, want 1", out.At(0, 0))
	}
}

func TestSAGEConvIsolatedNodeZeroAggregate(t *testing.T) {
	rng := tensor.NewRNG(8)
	g := graph.NewBuilder(2).Build() // no edges
	h := tensor.New(2, 2)
	h.Fill(3)
	l := newSAGE(g, 2, 2, NoAct, rng)
	l.W.Zero()
	l.W.Set(0, 0, 1)
	out := l.Forward(g, h, 2, InvDegrees(g))
	if out.At(0, 0) != 0 {
		t.Fatalf("isolated node aggregate = %v, want 0", out.At(0, 0))
	}
}

func gatLoss(l *GATConv, g *graph.Graph, h *tensor.Matrix, nOut int, labels []int32, mask []bool) float64 {
	out := l.Forward(g, h, nOut)
	loss, _ := SoftmaxCrossEntropy(out, labels, mask)
	return loss
}

func TestGATConvGradientCheck(t *testing.T) {
	rng := tensor.NewRNG(9)
	g := randGraph(rng, 7, 14)
	h := tensor.New(7, 3)
	tensor.GaussianInit(h, 1, rng)
	l := NewGATConv(3, 4, ReLUAct, rng)
	l.SetAgg(graph.NewAggIndex(g))
	nOut := 5
	labels := []int32{0, 1, 2, 3, 0}
	mask := []bool{true, true, false, true, true}

	out := l.Forward(g, h, nOut)
	_, dOut := SoftmaxCrossEntropy(out, labels, mask)
	l.ZeroGrad()
	dH := l.Backward(dOut)

	const eps = 1e-2
	check := func(name string, param, grad *tensor.Matrix, stride int) {
		for i := 0; i < len(param.Data); i += stride {
			orig := param.Data[i]
			param.Data[i] = orig + eps
			lp := gatLoss(l, g, h, nOut, labels, mask)
			param.Data[i] = orig - eps
			lm := gatLoss(l, g, h, nOut, labels, mask)
			param.Data[i] = orig
			fd := (lp - lm) / (2 * eps)
			if math.Abs(fd-float64(grad.Data[i])) > 3e-2*(1+math.Abs(fd)) {
				t.Fatalf("%s[%d]: fd %v vs analytic %v", name, i, fd, grad.Data[i])
			}
		}
	}
	check("W", l.W, l.DW, 2)
	check("A1", l.A1, l.DA1, 1)
	check("A2", l.A2, l.DA2, 1)
	check("H", h, dH, 2)
}

func TestGATAttentionSumsToOne(t *testing.T) {
	rng := tensor.NewRNG(10)
	g := randGraph(rng, 10, 30)
	h := tensor.New(10, 4)
	tensor.GaussianInit(h, 1, rng)
	l := NewGATConv(4, 4, NoAct, rng)
	l.SetAgg(graph.NewAggIndex(g))
	l.Forward(g, h, 10)
	for v := range 10 {
		lo, hi := l.segment(v)
		alpha := l.alphaBuf[lo:hi]
		var s float64
		for _, a := range alpha {
			if a < 0 {
				t.Fatalf("negative attention at %d", v)
			}
			s += float64(a)
		}
		if math.Abs(s-1) > 1e-4 {
			t.Fatalf("attention of %d sums to %v", v, s)
		}
	}
}

func TestInvDegrees(t *testing.T) {
	g := lineGraph()
	inv := InvDegrees(g)
	if inv[0] != 1 || inv[1] != 0.5 {
		t.Fatalf("inv degrees %v", inv[:2])
	}
	iso := graph.NewBuilder(1).Build()
	if InvDegrees(iso)[0] != 0 {
		t.Fatal("isolated node inverse degree must be 0")
	}
}
