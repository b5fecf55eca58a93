package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// The fused SAGE layer never materializes the textbook concat matrix; these
// tests keep that formulation as a straight-line reference (tensor.SpMM +
// tensor.MatMul over an explicit [z|h]) and pin every pass shape of the
// layer — one-shot, chunked forward, staged backward — against it bit for
// bit, on the same partition-shaped graphs as the chunked-pass tests.

// aggCases reuses the chunkedCases shapes plus denser/high-degree ones where
// the four-edge blocking always has full blocks and tails.
var aggCases = []chunkedCase{
	{"odd-prime", 13, 7, 5, 11, 3, 0.4},
	{"tiny", 3, 2, 2, 1, 1, 0.5},
	{"all-halo-dep", 17, 5, 4, 7, 5, 1.0},
	{"no-halo", 19, 0, 4, 5, 2, 0},
	{"dense", 29, 13, 17, 9, 6, 0.35},
	{"wide", 31, 11, 6, 23, 13, 0.3},
}

// sageConcatReference is Eq. 1–2 and their hand-derived backward written the
// textbook way, one dense operation per line over an explicit concat matrix:
//
//	concat = [diag(invDeg)·A·h | h]      pre = concat·W + b      out = σ(pre)
//	dPre = dOut ⊙ σ'(pre)   dW = concatᵀ·dPre   dB = Σ_v dPre_v   dConcat = dPre·Wᵀ
//	dH_v = dConcat_v[in:] (self), then dH_u += invDeg[v]·dConcat_v[:in] for
//	every edge v→u, sources ascending
//
// It returns freshly allocated results and touches none of l's state.
func sageConcatReference(l *SAGEConv, g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32, dOut *tensor.Matrix) (out, dH, dW, dB *tensor.Matrix) {
	in := l.InDim
	concat := tensor.New(nOut, 2*in)
	tensor.SpMM(concat, h, g.Indptr, g.Indices, invDeg, nil)
	for v := 0; v < nOut; v++ {
		copy(concat.Row(v)[in:], h.Row(v))
	}
	pre := tensor.New(nOut, l.OutDim)
	tensor.MatMul(pre, concat, l.W)
	for v := 0; v < nOut; v++ {
		tensor.AddTo(pre.Row(v), l.B.Row(0))
	}
	out = pre.Clone()
	activate(out.Data, l.Act)

	dPre := dOut.Clone()
	activationGrad(l.Act, dPre, pre)
	dW = tensor.New(2*in, l.OutDim)
	tensor.MatMulTransA(dW, concat, dPre)
	dB = tensor.New(1, l.OutDim)
	for v := 0; v < nOut; v++ {
		tensor.AddTo(dB.Row(0), dPre.Row(v))
	}
	dConcat := tensor.New(nOut, 2*in)
	tensor.MatMulTransB(dConcat, dPre, l.W)
	dH = tensor.New(h.Rows, in)
	for v := 0; v < nOut; v++ {
		copy(dH.Row(v), dConcat.Row(v)[in:])
	}
	for v := 0; v < nOut; v++ {
		for _, u := range g.Neighbors(int32(v)) {
			tensor.Axpy(dH.Row(int(u)), dConcat.Row(v)[:in], invDeg[v])
		}
	}
	return out, dH, dW, dB
}

// TestSAGEFusedMatchesConcatReference: the one-shot pass, the chunked
// forward over the halo split, the forward in single-row chunks in reverse
// order, and the staged backward must all reproduce the concat reference bit
// for bit — on odd/prime shapes, with every row or no row halo-dependent,
// and on a graph with zero-degree inner rows (invDeg = 0, aggregate half
// exactly zero). The backward differentiates dOut in place: afterwards dOut
// is the original masked by ReLU′ of the output, and a second one-shot
// Backward after the one Forward, reading it, gives the same dH bits and adds
// the same DW/DB increment as a first Backward from the same accumulators.
func TestSAGEFusedMatchesConcatReference(t *testing.T) {
	type fixture struct {
		name          string
		g             *graph.Graph
		nIn           int
		inDim, outDim int
	}
	var fixtures []fixture
	for _, tc := range aggCases {
		g := localGraph(tensor.NewRNG(301), tc.nIn, tc.nBd, tc.deg, tc.haloP)
		fixtures = append(fixtures, fixture{tc.name, g, tc.nIn, tc.inDim, tc.outDim})
	}
	iso := isolatedGraph(tensor.NewRNG(777), 11, 4, 3, map[int]bool{2: true, 7: true})
	if iso.Degree(2) != 0 || iso.Degree(7) != 0 {
		t.Fatal("test graph: nodes 2 and 7 must be isolated")
	}
	fixtures = append(fixtures, fixture{"zero-degree", iso, 11, 5, 3})

	for _, fx := range fixtures {
		g, nIn := fx.g, fx.nIn
		rng := tensor.NewRNG(303)
		free, dep, _ := splitHalo(g, nIn)
		h := randMat(rng, g.N, fx.inDim)
		invDeg := InvDegrees(g)[:nIn]
		dOut := randMat(rng, nIn, fx.outDim)
		inner := make([]int32, nIn)
		for v := range inner {
			inner[v] = int32(v)
		}

		one := newSAGE(g, fx.inDim, fx.outDim, ReLUAct, tensor.NewRNG(5))
		tensor.GaussianInit(one.B, 1, tensor.NewRNG(6)) // a zero bias would hide a missed add
		wantOut, wantDH, wantDW, wantDB := sageConcatReference(one, g, h, nIn, invDeg, dOut)

		dOrig := dOut.Clone()
		gotOut := one.Forward(g, h, nIn, invDeg)
		gotDH := one.Backward(dOut)
		sameBits(t, fx.name+"/one-shot/forward", gotOut.Data, wantOut.Data)
		sameBits(t, fx.name+"/one-shot/backward", gotDH.Data, wantDH.Data)
		sameBits(t, fx.name+"/one-shot/DW", one.DW.Data, wantDW.Data)
		sameBits(t, fx.name+"/one-shot/DB", one.DB.Data, wantDB.Data)

		// dOut now holds dOut ⊙ ReLU′(out): the original where the output
		// is positive, +0 where the ReLU clipped it.
		wantDPre := dOrig.Clone()
		for i, o := range gotOut.Data {
			if !(o > 0) {
				wantDPre.Data[i] = 0
			}
		}
		sameBits(t, fx.name+"/one-shot/dOut", dOut.Data, wantDPre.Data)
		// A second Backward after the one Forward, against a first Backward
		// of a twin layer whose accumulators start where one's stand now.
		twin := newSAGE(g, fx.inDim, fx.outDim, ReLUAct, tensor.NewRNG(5))
		twin.B.CopyFrom(one.B)
		twin.DW.CopyFrom(one.DW)
		twin.DB.CopyFrom(one.DB)
		twin.Forward(g, h, nIn, invDeg)
		twin.Backward(dOrig)
		sameBits(t, fx.name+"/second-backward/backward", one.Backward(dOut).Data, wantDH.Data)
		sameBits(t, fx.name+"/second-backward/dOut", dOut.Data, wantDPre.Data)
		sameBits(t, fx.name+"/second-backward/DW", one.DW.Data, twin.DW.Data)
		sameBits(t, fx.name+"/second-backward/DB", one.DB.Data, twin.DB.Data)

		// Chunked forward over the halo split, staged backward.
		stg := newSAGE(g, fx.inDim, fx.outDim, ReLUAct, tensor.NewRNG(5))
		stg.B.CopyFrom(one.B)
		got := stg.ForwardBegin(g, h, nIn, invDeg)
		stg.ForwardPrep(0, nIn)
		stg.ForwardRows(free)
		stg.ForwardPrep(nIn, g.N)
		stg.ForwardRows(dep)
		sameBits(t, fx.name+"/chunked/forward", got.Data, wantOut.Data)
		stg.BackwardBegin(dOut)
		gotStaged := stg.BackwardHalo(dep, nIn)
		stg.BackwardFinish(free, nIn)
		// Unreferenced halo rows stay zero in both; compare everything.
		sameBits(t, fx.name+"/staged/backward", gotStaged.Data, wantDH.Data)
		sameBits(t, fx.name+"/staged/DW", stg.DW.Data, wantDW.Data)
		sameBits(t, fx.name+"/staged/DB", stg.DB.Data, wantDB.Data)

		// Any duplicate-free cover: single-row chunks, descending.
		got = stg.ForwardBegin(g, h, nIn, invDeg)
		for v := nIn - 1; v >= 0; v-- {
			stg.ForwardRows(inner[v : v+1])
		}
		sameBits(t, fx.name+"/row-chunks/forward", got.Data, wantOut.Data)
	}
}

// stalePlanFixture is a pass graph, a same-node-count graph with a different
// edge count whose plan is therefore stale for it, inputs, and the size
// clause the rejection must carry.
func stalePlanFixture(t *testing.T) (g, other *graph.Graph, h *tensor.Matrix, sizes string) {
	rng := tensor.NewRNG(41)
	g = randGraph(rng, 8, 16)
	other = randGraph(rng, 8, 9)
	if len(g.Indices) == len(other.Indices) {
		t.Fatal("test graphs must differ in edge count")
	}
	sizes = fmt.Sprintf("covers %d nodes / %d edges, the pass graph has %d nodes / %d edges",
		other.N, len(other.Indices), g.N, len(g.Indices))
	return g, other, randMat(rng, g.N, 3), sizes
}

// panicsWith runs pass and requires it to panic with a message containing want.
func panicsWith(t *testing.T, name, want string, pass func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Fatalf("%s: panic %q does not contain %q", name, msg, want)
		}
	}()
	pass()
}

// TestSAGERejectsMissingOrStalePlan: with no scalar fallback, a plan built
// from a different graph would silently gather over the wrong transposed
// index — every pass entry refuses it with a panic naming both sizes, and a
// layer with no plan at all is refused the same way.
func TestSAGERejectsMissingOrStalePlan(t *testing.T) {
	g, other, h, sizes := stalePlanFixture(t)
	invDeg := InvDegrees(g)
	l := NewSAGEConv(3, 2, NoAct, tensor.NewRNG(42))
	panicsWith(t, "nil plan", fmt.Sprintf("SAGEConv has no aggregation plan for the pass graph (%d nodes / %d edges)", g.N, len(g.Indices)),
		func() { l.Forward(g, h, g.N, invDeg) })
	l.SetAgg(graph.NewAggIndex(other))
	panicsWith(t, "one-shot", "SAGEConv aggregation plan "+sizes, func() { l.Forward(g, h, g.N, invDeg) })
	panicsWith(t, "chunked", "SAGEConv aggregation plan "+sizes, func() { l.ForwardBegin(g, h, g.N, invDeg) })
	l.SetAgg(graph.NewAggIndex(g))
	l.Forward(g, h, g.N, invDeg) // the matching plan passes
}

// isolatedGraph builds a local graph where nodes isoA (inner) and the last
// halo row are completely isolated, the other inner rows draw deg neighbors.
func isolatedGraph(rng *tensor.RNG, nIn, nBd, deg int, isolated map[int]bool) *graph.Graph {
	n := nIn + nBd
	indptr := make([]int64, n+1)
	var indices []int32
	for v := 0; v < nIn; v++ {
		indptr[v] = int64(len(indices))
		if isolated[v] {
			continue
		}
		for e := 0; e < deg; e++ {
			u := rng.Intn(n - 1)
			if isolated[u] || u == v {
				u = (v + 1) % nIn // deterministic non-isolated fallback
				if isolated[u] {
					continue
				}
			}
			indices = append(indices, int32(u))
		}
	}
	for v := nIn; v <= n; v++ {
		indptr[v] = int64(len(indices))
	}
	return &graph.Graph{N: n, Indptr: indptr, Indices: indices}
}

// TestSAGEZeroDegreeNodesFullPass drives zero-degree and isolated nodes
// through the full forward+backward: the aggregate half must be exactly
// zero, the output reduce to σ(W·[0|h_v]+b), parameter gradients must pass
// a finite-difference check, and nothing may go NaN.
func TestSAGEZeroDegreeNodesFullPass(t *testing.T) {
	const nIn, nBd, deg, inDim, outDim = 11, 4, 3, 5, 3
	iso := map[int]bool{2: true, 7: true}
	rng := tensor.NewRNG(777)
	g := isolatedGraph(rng, nIn, nBd, deg, iso)
	h := randMat(rng, g.N, inDim)
	invDeg := make([]float32, nIn)
	for v := range invDeg {
		if d := g.Degree(int32(v)); d > 0 {
			invDeg[v] = 1 / float32(d)
		}
	}
	if invDeg[2] != 0 || invDeg[7] != 0 {
		t.Fatal("test graph: nodes 2 and 7 must be isolated")
	}

	labels := make([]int32, nIn)
	mask := make([]bool, nIn)
	for v := 0; v < nIn; v++ {
		labels[v] = int32(v % outDim)
		mask[v] = true
	}

	l := newSAGE(g, inDim, outDim, ReLUAct, tensor.NewRNG(9))
	out := l.Forward(g, h, nIn, invDeg)
	// Isolated node: aggregate half is zero, so out = σ(W₂·h_v + b)
	// where W₂ is the lower half of W.
	for _, v := range []int{2, 7} {
		for j := 0; j < outDim; j++ {
			var s float32
			for c := 0; c < inDim; c++ {
				s += h.At(v, c) * l.W.At(inDim+c, j)
			}
			s += l.B.At(0, j)
			if s < 0 {
				s = 0
			}
			if math.Abs(float64(out.At(v, j)-s)) > 1e-5 {
				t.Fatalf("isolated node %d col %d: out %v, want self-only %v", v, j, out.At(v, j), s)
			}
		}
	}
	for _, x := range out.Data {
		if math.IsNaN(float64(x)) {
			t.Fatalf("NaN in forward output")
		}
	}

	// Finite-difference gradient check of W and the input through the
	// full masked loss, isolated nodes included in the mask.
	loss := func() float64 {
		o := l.Forward(g, h, nIn, invDeg)
		ls, _ := SoftmaxCrossEntropy(o, labels, mask)
		return ls
	}
	l.ZeroGrad()
	out = l.Forward(g, h, nIn, invDeg)
	ls, dOut := SoftmaxCrossEntropy(out, labels, mask)
	_ = ls
	dH := l.Backward(dOut)
	const eps = 1e-3
	checkFD := func(name string, param []float32, grad []float32, idx int) {
		t.Helper()
		old := param[idx]
		param[idx] = old + eps
		up := loss()
		param[idx] = old - eps
		down := loss()
		param[idx] = old
		fd := (up - down) / (2 * eps)
		if diff := math.Abs(fd - float64(grad[idx])); diff > 2e-3*(1+math.Abs(fd)) {
			t.Fatalf("%s[%d]: analytic %v vs fd %v", name, idx, grad[idx], fd)
		}
	}
	// Probe the self-half rows of W feeding the isolated nodes, a few
	// aggregate-half entries, the bias, and the isolated nodes' input
	// rows (whose gradient flows only through the self term).
	for _, idx := range []int{0, inDim*outDim + 1, (2*inDim - 1) * outDim} {
		checkFD("W", l.W.Data, l.DW.Data, idx)
	}
	checkFD("B", l.B.Data, l.DB.Data, 1)
	checkFD("h", h.Data, dH.Data, 2*inDim+1) // input row of isolated node 2
	for _, x := range dH.Data {
		if math.IsNaN(float64(x)) {
			t.Fatalf("NaN in input gradient")
		}
	}
}

// TestGATZeroDegreeNodesFullPass: isolated nodes attend only to themselves
// (α = 1), so out = σ(W·h_v), and the full forward+backward stays finite
// and passes a finite-difference probe.
func TestGATZeroDegreeNodesFullPass(t *testing.T) {
	const nIn, nBd, deg, inDim, outDim = 9, 3, 3, 4, 3
	iso := map[int]bool{0: true, 5: true}
	rng := tensor.NewRNG(778)
	g := isolatedGraph(rng, nIn, nBd, deg, iso)
	h := randMat(rng, g.N, inDim)
	labels := make([]int32, nIn)
	mask := make([]bool, nIn)
	for v := 0; v < nIn; v++ {
		labels[v] = int32(v % outDim)
		mask[v] = true
	}

	l := NewGATConv(inDim, outDim, ReLUAct, tensor.NewRNG(11))
	l.SetAgg(graph.NewAggIndex(g))
	out := l.Forward(g, h, nIn)
	for _, v := range []int{0, 5} {
		for j := 0; j < outDim; j++ {
			var s float32
			for c := 0; c < inDim; c++ {
				s += h.At(v, c) * l.W.At(c, j)
			}
			if s < 0 {
				s = 0
			}
			if math.Abs(float64(out.At(v, j)-s)) > 1e-5 {
				t.Fatalf("isolated node %d col %d: out %v, want self-attention %v", v, j, out.At(v, j), s)
			}
		}
	}

	loss := func() float64 {
		o := l.Forward(g, h, nIn)
		ls, _ := SoftmaxCrossEntropy(o, labels, mask)
		return ls
	}
	l.ZeroGrad()
	out = l.Forward(g, h, nIn)
	_, dOut := SoftmaxCrossEntropy(out, labels, mask)
	dH := l.Backward(dOut)
	const eps = 1e-3
	for _, probe := range []struct {
		name  string
		param []float32
		grad  []float32
		idx   int
	}{
		{"W", l.W.Data, l.DW.Data, 1},
		{"A1", l.A1.Data, l.DA1.Data, 0},
		{"A2", l.A2.Data, l.DA2.Data, 2},
		{"h", h.Data, dH.Data, 0}, // input row of isolated node 0
	} {
		old := probe.param[probe.idx]
		probe.param[probe.idx] = old + eps
		up := loss()
		probe.param[probe.idx] = old - eps
		down := loss()
		probe.param[probe.idx] = old
		fd := (up - down) / (2 * eps)
		if diff := math.Abs(fd - float64(probe.grad[probe.idx])); diff > 2e-3*(1+math.Abs(fd)) {
			t.Fatalf("%s[%d]: analytic %v vs fd %v", probe.name, probe.idx, probe.grad[probe.idx], fd)
		}
	}
	for _, x := range dH.Data {
		if math.IsNaN(float64(x)) {
			t.Fatalf("NaN in input gradient")
		}
	}
}
