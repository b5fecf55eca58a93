package nn

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// refGAT runs the attention backward as a node-serial sweep: output rows in
// ascending order, each adding its terms to the dWh rows it touches with one
// Axpy per term. The layer's row-parallel edge and pull passes must give the
// same bits; it reads the layer's forward caches and keeps its own
// accumulators (the fields below shadow the layer's), and the forward's raw
// attention logits, which the layer does not keep.
type refGAT struct {
	*GATConv
	eRaw             [][]float32
	dPre, dWh        *tensor.Matrix
	dAlpha, da1, da2 []float32
}

// gatGrads is what one backward pass produces: dWh, the input gradient, and
// the parameter gradients after accumulation.
type gatGrads struct {
	dWh, dH, DW, DA1, DA2 *tensor.Matrix
}

// refGATBackward runs the serial sweep for dOut over l's last Forward and
// returns the gradients, the parameter ones accumulated onto l's current
// values. l itself is left untouched.
func refGATBackward(l *GATConv, dOut *tensor.Matrix) gatGrads {
	r := &refGAT{GATConv: l, dPre: dOut.Clone(), dWh: tensor.New(l.nAll, l.OutDim),
		da1: make([]float32, l.OutDim), da2: make([]float32, l.OutDim)}
	activationGrad(l.Act, r.dPre, l.out)
	for v := 0; v < l.nOut; v++ {
		nbrs := l.g.Neighbors(int32(v))
		raw := []float32{l.s1[v] + l.s2[v]}
		for _, u := range nbrs {
			raw = append(raw, l.s1[v]+l.s2[u])
		}
		r.eRaw = append(r.eRaw, raw)
	}
	for v := 0; v < l.nOut; v++ {
		r.backwardNode(v, 0, l.nAll, true)
	}
	out := gatGrads{dWh: r.dWh, DW: l.DW.Clone(), DA1: l.DA1.Clone(), DA2: l.DA2.Clone()}
	for j := 0; j < l.OutDim; j++ {
		out.DA1.Data[j] += r.da1[j]
		out.DA2.Data[j] += r.da2[j]
	}
	dW := tensor.New(l.InDim, l.OutDim)
	tensor.MatMulTransAAt(dW, l.h, r.dWh, l.haloAt, l.haloN)
	out.DW.Add(dW)
	out.dH = tensor.New(l.nAll, l.InDim)
	tensor.MatMulTransB(out.dH, r.dWh, l.W)
	return out
}

// backwardNode runs the attention backward for output node v, applying
// gradient writes only to dWh destination rows u with destLo ≤ u < destHi
// and accumulating da1/da2 only when accumA is set. Splitting one sweep into
// destination-filtered sweeps preserves, for every destination row and for
// da1/da2, the exact += order of the unfiltered sweep (the staged schedule
// recomputes dα for halo-dependent rows, which is pure recomputation of the
// same values). The inner loops run on the engine primitives: dα is a
// four-blocked gather of dots (dz loaded once per four neighbor rows), and
// every accumulation row op is a SIMD Axpy.
func (l *refGAT) backwardNode(v, destLo, destHi int, accumA bool) {
	nbrs := l.g.Neighbors(int32(v))
	lo, hi := l.segment(v)
	alpha := l.alphaBuf[lo:hi]
	raw := l.eRaw[v]
	dz := l.dPre.Row(v)
	k := len(alpha)

	// dα_i = dz · Wh_{u_i} (self first), then dWh_{u_i} += α_i dz in the
	// same self-then-ascending-i order as the fused sweep it replaces.
	dAlpha := tensor.EnsureF32(&l.dAlpha, k)
	dAlpha[0] = tensor.Dot(dz, l.wh.Row(v))
	tensor.GatherDots(dAlpha[1:], dz, l.wh, nbrs)
	if v >= destLo && v < destHi {
		tensor.Axpy(l.dWh.Row(v), dz, alpha[0])
	}
	for i, u32 := range nbrs {
		if u := int(u32); u >= destLo && u < destHi {
			tensor.Axpy(l.dWh.Row(u), dz, alpha[i+1])
		}
	}
	// Softmax backward: de_i = α_i (dα_i − Σ_j α_j dα_j). The inner product
	// is a per-edge dot over the attention row; every computation of it goes
	// through the same SIMD Dot, so the staged recomputation for
	// halo-dependent rows reproduces identical bits.
	inner := tensor.Dot(alpha, dAlpha)
	a1 := l.A1.Row(0)
	a2 := l.A2.Row(0)
	whv := l.wh.Row(v)
	for i := 0; i < k; i++ {
		de := alpha[i] * (dAlpha[i] - inner)
		// LeakyReLU backward.
		if raw[i] < 0 {
			de *= l.NegSlope
		}
		// e_i = a1·Wh_v + a2·Wh_{u_i}.
		u := v
		if i > 0 {
			u = int(nbrs[i-1])
		}
		if accumA {
			tensor.Axpy(l.da1, whv, de)
			tensor.Axpy(l.da2, l.wh.Row(u), de)
		}
		if v >= destLo && v < destHi {
			tensor.Axpy(l.dWh.Row(v), a1, de)
		}
		if u >= destLo && u < destHi {
			tensor.Axpy(l.dWh.Row(u), a2, de)
		}
	}
}

// gatRefGraph builds a graph over nAll rows: each row v < nEdged draws
// degree(v) neighbors from [0, nAll) — in no particular order, repeats and
// self loops included, as the epoch graph's local ids come — and the rest
// have none.
func gatRefGraph(nEdged, nAll int, degree func(v int) int, pick func(v int) int32) *graph.Graph {
	g := &graph.Graph{N: nAll, Indptr: make([]int64, nAll+1)}
	for v := 0; v < nAll; v++ {
		if v < nEdged {
			for d := degree(v); d > 0; d-- {
				g.Indices = append(g.Indices, pick(v))
			}
		}
		g.Indptr[v+1] = int64(len(g.Indices))
	}
	return g
}

// gatRefCase is one graph for the serial-sweep comparison: outputs are the
// first nOut rows, and a non-nil haloAt places the trailing input rows in a
// dense block of haloN rows.
type gatRefCase struct {
	name          string
	g             *graph.Graph
	nOut          int
	inDim, outDim int
	haloAt        []int32
	haloN         int
}

func gatRefCases() []gatRefCase {
	rng := tensor.NewRNG(505)
	var cases []gatRefCase

	// Partition-shaped with halo rows, zero-degree rows and a halo layout.
	{
		const nOut, nBd = 37, 15
		g := gatRefGraph(nOut, nOut+nBd,
			func(v int) int { return []int{0, 1, 3, 6}[v%4] },
			func(int) int32 {
				if rng.Float64() < 0.35 {
					return int32(nOut + rng.Intn(nBd))
				}
				return int32(rng.Intn(nOut))
			})
		var at []int32
		for i := 0; i < nBd; i++ {
			at = append(at, int32(3*i+i%3))
		}
		cases = append(cases,
			gatRefCase{"halo", g, nOut, 9, 13, nil, 0},
			gatRefCase{"halo-layout", g, nOut, 9, 32, at, 3 * nBd})
	}
	// A hub: row 0 points at more than 256 rows, and every other output row
	// points at it (some twice), so its chain runs past one piece; halo row
	// nOut is a second hub, built in the halo stage.
	{
		const nOut, nBd = 300, 9
		g := gatRefGraph(nOut, nOut+nBd,
			func(v int) int {
				if v == 0 {
					return 280
				}
				return 2 + v%3
			},
			func(v int) int32 {
				switch x := rng.Float64(); {
				case v > 0 && x < 0.4:
					return 0
				case x < 0.7:
					return int32(nOut)
				case x < 0.8:
					return int32(nOut + rng.Intn(nBd))
				default:
					return int32(rng.Intn(nOut))
				}
			})
		cases = append(cases, gatRefCase{"hub", g, nOut, 7, 32, nil, 0})
	}
	// Input-only rows with edges of their own, which no output row's sweep
	// visits.
	{
		const nOut, nAll = 20, 29
		g := gatRefGraph(nAll, nAll, func(v int) int { return v % 5 }, func(int) int32 { return int32(rng.Intn(nAll)) })
		cases = append(cases, gatRefCase{"input-edges", g, nOut, 5, 8, nil, 0})
	}
	return cases
}

// TestGATBackwardMatchesSerialSweep pins the edge and pull passes to the
// serial sweep (refGATBackward) bit for bit — dWh, dH, DW, DA1 and DA2 — for
// the one-shot Backward, BackwardParams and the staged backward, at pool
// widths 1, 2 and 4, and for a second Backward after one Forward. The order
// it pins: a source v ≠ r adds α·dz_v, then de·a2, to row r; r's own block,
// at its place among the ascending sources, adds α_self·dz_r, de_self·a1,
// de_self·a2, then de_i·a1 per neighbor.
func TestGATBackwardMatchesSerialSweep(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		for _, tc := range gatRefCases() {
			t.Run(fmt.Sprintf("width=%d/%s", width, tc.name), func(t *testing.T) {
				defer tensor.ForceParallelism(width)()
				checkGATAgainstSerialSweep(t, tc)
			})
		}
	}
}

// checkGATAgainstSerialSweep runs TestGATBackwardMatchesSerialSweep's
// comparisons for one graph at the current pool width.
func checkGATAgainstSerialSweep(t *testing.T, tc gatRefCase) {
	rng := tensor.NewRNG(606)
	h := randMat(rng, tc.g.N, tc.inDim)
	free, dep, _ := splitHalo(tc.g, tc.nOut)
	newLayer := func() *GATConv {
		l := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(6))
		l.SetAgg(graph.NewAggIndex(tc.g))
		l.SetHaloLayout(tc.haloAt, tc.haloN)
		tensor.GaussianInit(l.DW, 1, rng) // accumulate onto non-zero gradients
		return l
	}
	check := func(name string, l *GATConv, want gatGrads, dH *tensor.Matrix) {
		t.Helper()
		sameBits(t, name+"/dWh", l.dWh.Data, want.dWh.Data)
		if dH != nil {
			sameBits(t, name+"/dH", dH.Data, want.dH.Data)
		}
		sameBits(t, name+"/DW", l.DW.Data, want.DW.Data)
		sameBits(t, name+"/DA1", l.DA1.Data, want.DA1.Data)
		sameBits(t, name+"/DA2", l.DA2.Data, want.DA2.Data)
	}

	one := newLayer()
	one.Forward(tc.g, h, tc.nOut)
	for pass := 0; pass < 2; pass++ { // the second Backward reuses the first Forward
		dOut := randMat(rng, tc.nOut, tc.outDim)
		want := refGATBackward(one, dOut)
		check(fmt.Sprintf("one-shot-%d", pass), one, want, one.Backward(dOut))
	}

	params := newLayer()
	params.Forward(tc.g, h, tc.nOut)
	dOut := randMat(rng, tc.nOut, tc.outDim)
	want := refGATBackward(params, dOut)
	params.BackwardParams(dOut)
	check("params", params, want, nil)

	stg := newLayer()
	stg.ForwardBegin(tc.g, h, tc.nOut)
	stg.ForwardPrep(0, tc.g.N)
	stg.ForwardRows(free)
	stg.ForwardRows(dep)
	for pass := 0; pass < 2; pass++ {
		dOut := randMat(rng, tc.nOut, tc.outDim)
		want := refGATBackward(stg, dOut)
		stg.BackwardBegin(dOut)
		stg.BackwardHalo(dep, tc.nOut)
		check(fmt.Sprintf("staged-%d", pass), stg, want, stg.BackwardFinish(free, tc.nOut))
	}
}

// TestGATRejectsMissingOrStalePlan: the backward gathers over the plan's
// transposed index, so a GAT pass refuses a missing plan, or one built from
// another graph, at entry — with SAGE's message, not a fault deep in the pull.
func TestGATRejectsMissingOrStalePlan(t *testing.T) {
	g, other, h, sizes := stalePlanFixture(t)
	l := NewGATConv(3, 2, NoAct, tensor.NewRNG(42))
	panicsWith(t, "nil plan", fmt.Sprintf("GATConv has no aggregation plan for the pass graph (%d nodes / %d edges)", g.N, len(g.Indices)),
		func() { l.Forward(g, h, g.N) })
	l.SetAgg(graph.NewAggIndex(other))
	panicsWith(t, "one-shot", "GATConv aggregation plan "+sizes, func() { l.Forward(g, h, g.N) })
	panicsWith(t, "chunked", "GATConv aggregation plan "+sizes, func() { l.ForwardBegin(g, h, g.N) })
	l.SetAgg(graph.NewAggIndex(g))
	l.Forward(g, h, g.N) // the matching plan passes
}

// TestGATBackwardHaloRejectsOutputHaloRows: the staged backward builds output
// rows' dWh in BackwardFinish, so halo rows that are also output rows
// (nIn < nOut) must panic rather than read edge passes not yet run.
func TestGATBackwardHaloRejectsOutputHaloRows(t *testing.T) {
	g, _, h, _ := stalePlanFixture(t)
	l := NewGATConv(3, 2, NoAct, tensor.NewRNG(42))
	l.SetAgg(graph.NewAggIndex(g))
	l.Forward(g, h, g.N)
	l.BackwardBegin(tensor.New(g.N, 2))
	panicsWith(t, "nIn < nOut", fmt.Sprintf("GATConv.BackwardHalo with nIn %d < nOut %d", g.N-1, g.N),
		func() { l.BackwardHalo(nil, g.N-1) })
}

// BenchmarkGATBackwardWorkload times the attention backward at the shape of
// one rank of the k2-gat-chan benchmark workload: 12,000 output rows of
// degree 24, a tenth of the edges into 1,200 halo rows, at the model's two
// layers (48→32 and 32→32), one-shot and staged.
func BenchmarkGATBackwardWorkload(b *testing.B) {
	const nOut, nBd, deg = 12000, 1200, 24
	rng := tensor.NewRNG(48)
	g := localGraph(rng, nOut, nBd, deg, 0.1)
	agg := graph.NewAggIndex(g)
	free, dep, _ := splitHalo(g, nOut)
	for _, in := range []int{48, 32} {
		l := NewGATConv(in, 32, ReLUAct, rng)
		l.SetAgg(agg)
		h := randMat(rng, g.N, in)
		dOut := randMat(rng, nOut, 32)
		l.Forward(g, h, nOut)
		b.Run(fmt.Sprintf("one-shot/in=%d/out=32", in), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.Backward(dOut)
			}
		})
		b.Run(fmt.Sprintf("staged/in=%d/out=32", in), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l.BackwardBegin(dOut)
				l.BackwardHalo(dep, nOut)
				l.BackwardFinish(free, nOut)
			}
		})
	}
}
