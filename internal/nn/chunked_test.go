package nn

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// The chunked-pass contract behind the pipelined epoch engine: splitting a
// layer's forward into halo-free/halo-dependent row chunks and its backward
// into the staged halo→finish schedule must reproduce the one-shot passes
// bit for bit. These tests build partition-shaped local graphs (inner rows
// [0,nIn) with neighbors, halo rows [nIn,n) without) on odd/prime shapes,
// including the two extremes: every row halo-dependent (worst case — zero
// overlap available) and no halo edges at all.

// localGraph builds a partition-style subgraph: each of the nIn inner rows
// gets deg neighbors drawn from the whole local space (inner + halo); halo
// rows have empty adjacency, halo fraction haloP of the draws.
func localGraph(rng *tensor.RNG, nIn, nBd, deg int, haloP float64) *graph.Graph {
	n := nIn + nBd
	indptr := make([]int64, n+1)
	var indices []int32
	for v := 0; v < nIn; v++ {
		indptr[v] = int64(len(indices))
		for e := 0; e < deg; e++ {
			if nBd > 0 && rng.Float64() < haloP {
				indices = append(indices, int32(nIn+rng.Intn(nBd)))
			} else {
				indices = append(indices, int32(rng.Intn(nIn)))
			}
		}
	}
	for v := nIn; v <= n; v++ {
		indptr[v] = int64(len(indices))
	}
	return &graph.Graph{N: n, Indptr: indptr, Indices: indices}
}

// splitHalo partitions the inner rows by halo dependence (ascending) and
// collects the halo rows actually referenced (ascending), mirroring
// core.LocalPartition.splitRows.
func splitHalo(g *graph.Graph, nIn int) (free, dep, slots []int32) {
	used := make([]bool, g.N)
	for v := int32(0); v < int32(nIn); v++ {
		needs := false
		for _, u := range g.Neighbors(v) {
			if int(u) >= nIn {
				needs = true
				used[u] = true
			}
		}
		if needs {
			dep = append(dep, v)
		} else {
			free = append(free, v)
		}
	}
	for s := nIn; s < g.N; s++ {
		if used[s] {
			slots = append(slots, int32(s))
		}
	}
	return free, dep, slots
}

// newSAGE builds a SAGE layer with the aggregation plan of g installed.
func newSAGE(g *graph.Graph, inDim, outDim int, act Activation, rng *tensor.RNG) *SAGEConv {
	l := NewSAGEConv(inDim, outDim, act, rng)
	l.SetAgg(graph.NewAggIndex(g))
	return l
}

func randMat(rng *tensor.RNG, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func sameBits(t *testing.T, name string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: element %d = %v, want %v", name, i, a[i], b[i])
		}
	}
}

func sameRowsBits(t *testing.T, name string, a, b *tensor.Matrix, rows []int32) {
	t.Helper()
	for _, v := range rows {
		ra, rb := a.Row(int(v)), b.Row(int(v))
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("%s: row %d col %d = %v, want %v", name, v, j, ra[j], rb[j])
			}
		}
	}
}

// chunkedCase is one graph/dimension configuration; haloP=1 with nBd>0 makes
// every inner row halo-dependent, nBd=0 makes every row halo-free.
type chunkedCase struct {
	name          string
	nIn, nBd, deg int
	inDim, outDim int
	haloP         float64
}

var chunkedCases = []chunkedCase{
	{"odd-prime", 13, 7, 5, 11, 3, 0.4},
	{"tiny", 3, 2, 2, 1, 1, 0.5},
	{"all-halo-dep", 17, 5, 4, 7, 5, 1.0},
	{"no-halo", 19, 0, 4, 5, 2, 0},
	{"wide", 31, 11, 6, 23, 13, 0.3},
	{"multi-block", 150, 40, 5, 9, 4, 0.3},
}

// TestGATChunkedMatchesOneShot: ForwardBegin/ForwardRows over the halo split
// and the staged backward must reproduce Forward/Backward exactly for the
// attention layer, whose backward sweeps are destination-filtered rather
// than source-split. (SAGE's same contract is pinned against the concat
// reference in TestSAGEFusedMatchesConcatReference.) The one-shot pass also
// runs with the kernel pool forced wide — no plan installed, its sweep
// claimed block by block — and must match the inline pass bit for bit.
func TestGATChunkedMatchesOneShot(t *testing.T) {
	for _, tc := range chunkedCases {
		rng := tensor.NewRNG(202)
		g := localGraph(rng, tc.nIn, tc.nBd, tc.deg, tc.haloP)
		free, dep, slots := splitHalo(g, tc.nIn)
		h := randMat(rng, g.N, tc.inDim)
		dOut := randMat(rng, tc.nIn, tc.outDim)

		ref := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(6))
		chk := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(6))

		wantOut := ref.Forward(g, h, tc.nIn)
		wantDH := ref.Backward(dOut)

		gotOut := chk.ForwardBegin(g, h, tc.nIn)
		chk.ForwardPrep(0, tc.nIn)
		chk.ForwardRows(free)
		chk.ForwardPrep(tc.nIn, g.N)
		chk.ForwardRows(dep)
		sameBits(t, tc.name+"/forward", gotOut.Data, wantOut.Data)

		chk.BackwardBegin(dOut)
		gotDH := chk.BackwardHalo(dep, slots, tc.nIn)
		chk.BackwardFinish(free, tc.nIn)
		inner := make([]int32, tc.nIn)
		for v := range inner {
			inner[v] = int32(v)
		}
		sameRowsBits(t, tc.name+"/backward-inner", gotDH, wantDH, inner)
		sameRowsBits(t, tc.name+"/backward-halo", gotDH, wantDH, slots)
		sameBits(t, tc.name+"/DW", chk.DW.Data, ref.DW.Data)
		sameBits(t, tc.name+"/DA1", chk.DA1.Data, ref.DA1.Data)
		sameBits(t, tc.name+"/DA2", chk.DA2.Data, ref.DA2.Data)

		par := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(6))
		restore := tensor.ForceParallelism(4)
		parOut := par.Forward(g, h, tc.nIn)
		parDH := par.Backward(dOut)
		restore()
		sameBits(t, tc.name+"/parallel-forward", parOut.Data, wantOut.Data)
		sameBits(t, tc.name+"/parallel-backward", parDH.Data, wantDH.Data)
		sameBits(t, tc.name+"/parallel-DW", par.DW.Data, ref.DW.Data)
	}
}

// TestDropoutChunkedMatchesOneShot: chunked forward must consume the mask
// RNG stream exactly like a full pass (inner rows before halo rows), and the
// chunked backward must reproduce the one-shot mask application.
func TestDropoutChunkedMatchesOneShot(t *testing.T) {
	const rows, cols, cut = 23, 7, 9
	x := randMat(tensor.NewRNG(3), rows, cols)
	dOut := randMat(tensor.NewRNG(4), rows, cols)

	ref := NewDropout(0.4, tensor.NewRNG(9))
	chk := NewDropout(0.4, tensor.NewRNG(9))

	want := ref.Forward(x, true)
	got := chk.ForwardBegin(x, true)
	chk.ForwardRows(0, cut)
	chk.ForwardRows(cut, rows)
	sameBits(t, "dropout/forward", got.Data, want.Data)

	wantDX := ref.Backward(dOut)
	gotDX := chk.BackwardBegin(dOut)
	chk.BackwardRows(cut, rows) // backward chunks may run in any order
	chk.BackwardRows(0, cut)
	sameBits(t, "dropout/backward", gotDX.Data, wantDX.Data)

	// Identity pass: chunk calls are no-ops and the inputs pass through.
	if out := chk.ForwardBegin(x, false); out != x {
		t.Fatal("identity ForwardBegin must return x")
	}
	chk.ForwardRows(0, rows)
	if dx := chk.BackwardBegin(dOut); dx != dOut {
		t.Fatal("identity BackwardBegin must return dOut")
	}
	chk.BackwardRows(0, rows)
}

// TestDropoutMaskApplySplitMatchesForwardRows: drawing all masks up front
// (MaskRows, the RNG-stream-ordered half) and applying them later in
// arbitrary per-peer row batches (ApplyMaskedRows, the value-dependent half)
// must reproduce a plain ascending ForwardRows pass bit for bit — the
// contract the arrival-order halo drain rests on.
func TestDropoutMaskApplySplitMatchesForwardRows(t *testing.T) {
	const rows, cols, cut = 23, 7, 9
	x := randMat(tensor.NewRNG(3), rows, cols)
	// Poison a "late" row with ±0 and extreme values to pin the dropped-
	// element semantics (a literal 0, not value*0).
	copy(x.Row(rows-1), []float32{float32(math.Inf(1)), float32(math.Copysign(0, -1)), -1e30, 0, 1, -2, 3})

	ref := NewDropout(0.4, tensor.NewRNG(9))
	chk := NewDropout(0.4, tensor.NewRNG(9))

	want := ref.ForwardBegin(x, true)
	ref.ForwardRows(0, cut)
	ref.ForwardRows(cut, rows)

	got := chk.ForwardBegin(x, true)
	chk.ForwardRows(0, cut)
	chk.MaskRows(cut, rows)
	// Apply in out-of-order, disjoint batches, as peers landing would.
	chk.ApplyMaskedRows([]int32{21, 22, 10, 15})
	chk.ApplyMaskedRows([]int32{9, 20, 11})
	chk.ApplyMaskedRows([]int32{14, 12, 13, 16, 17, 18, 19})
	sameBits(t, "dropout/mask-apply", got.Data, want.Data)

	// Identity pass: both halves are no-ops.
	if out := chk.ForwardBegin(x, false); out != x {
		t.Fatal("identity ForwardBegin must return x")
	}
	chk.MaskRows(0, rows)
	chk.ApplyMaskedRows([]int32{0, 1})
}

// TestGATForwardPrepRowsMatchesRange: per-row-list prep must reproduce the
// range form bit for bit in any duplicate-free cover order, so the
// arrival-order drain can prep one peer's halo slots as they land.
func TestGATForwardPrepRowsMatchesRange(t *testing.T) {
	for _, tc := range chunkedCases {
		rng := tensor.NewRNG(77)
		g := localGraph(rng, tc.nIn, tc.nBd, tc.deg, tc.haloP)
		h := randMat(rng, g.N, tc.inDim)
		free, dep, slots := splitHalo(g, tc.nIn)

		ref := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(5))
		chk := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(5))

		want := ref.ForwardBegin(g, h, tc.nIn)
		ref.ForwardPrep(0, g.N)
		ref.ForwardRows(free)
		ref.ForwardRows(dep)

		got := chk.ForwardBegin(g, h, tc.nIn)
		chk.ForwardPrep(0, tc.nIn)
		chk.ForwardRows(free)
		// Prep the referenced halo slots in reversed per-row batches (the
		// arrival order is arbitrary), then complete the dependent rows.
		for i := len(slots) - 1; i >= 0; i-- {
			chk.ForwardPrepRows(slots[i : i+1])
		}
		chk.ForwardRows(dep)
		sameBits(t, tc.name+"/gat-prep-rows", got.Data, want.Data)
	}
}
