package nn

import (
	"fmt"
	"math"
	"slices"
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
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", name, i, a[i], math.Float32bits(a[i]), b[i], math.Float32bits(b[i]))
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
// attention layer, whose staged backward splits its edge pass by source and
// its pull by destination. (SAGE's same contract is pinned against the concat
// reference in TestSAGEFusedMatchesConcatReference; GAT's against the serial
// sweep in TestGATBackwardMatchesSerialSweep.) The one-shot pass also runs
// with the kernel pool forced wide — its sweeps claimed block by block — and
// must match the inline pass bit for bit.
func TestGATChunkedMatchesOneShot(t *testing.T) {
	for _, tc := range chunkedCases {
		rng := tensor.NewRNG(202)
		g := localGraph(rng, tc.nIn, tc.nBd, tc.deg, tc.haloP)
		free, dep, _ := splitHalo(g, tc.nIn)
		h := randMat(rng, g.N, tc.inDim)
		dOut := randMat(rng, tc.nIn, tc.outDim)

		ref := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(6))
		chk := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(6))
		ref.SetAgg(graph.NewAggIndex(g))
		chk.SetAgg(graph.NewAggIndex(g))

		wantOut := ref.Forward(g, h, tc.nIn)
		wantDH := ref.Backward(dOut)

		gotOut := chk.ForwardBegin(g, h, tc.nIn)
		chk.ForwardPrep(0, tc.nIn)
		chk.ForwardRows(free)
		chk.ForwardPrep(tc.nIn, g.N)
		chk.ForwardRows(dep)
		sameBits(t, tc.name+"/forward", gotOut.Data, wantOut.Data)

		chk.BackwardBegin(dOut)
		gotDH := chk.BackwardHalo(dep, tc.nIn)
		chk.BackwardFinish(free, tc.nIn)
		sameBits(t, tc.name+"/backward", gotDH.Data, wantDH.Data)
		sameBits(t, tc.name+"/DW", chk.DW.Data, ref.DW.Data)
		sameBits(t, tc.name+"/DA1", chk.DA1.Data, ref.DA1.Data)
		sameBits(t, tc.name+"/DA2", chk.DA2.Data, ref.DA2.Data)

		par := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(6))
		par.SetAgg(graph.NewAggIndex(g))
		restore := tensor.ForceParallelism(4)
		parOut := par.Forward(g, h, tc.nIn)
		parDH := par.Backward(dOut)
		restore()
		sameBits(t, tc.name+"/parallel-forward", parOut.Data, wantOut.Data)
		sameBits(t, tc.name+"/parallel-backward", parDH.Data, wantDH.Data)
		sameBits(t, tc.name+"/parallel-DW", par.DW.Data, ref.DW.Data)
	}
}

// TestDropoutChunkedMatchesOneShot: a forward whose row chunks run in any
// order draws exactly the masks of a full pass, and the chunked backward
// reproduces the one-shot mask application.
func TestDropoutChunkedMatchesOneShot(t *testing.T) {
	const rows, cols, cut = 23, 7, 9
	x := randMat(tensor.NewRNG(3), rows, cols)
	dOut := randMat(tensor.NewRNG(4), rows, cols)

	ref := NewDropout(0.4, tensor.NewRNG(9))
	chk := NewDropout(0.4, tensor.NewRNG(9))

	want := ref.Forward(x, true)
	got := tensor.New(rows, cols)
	chk.ForwardBegin(got, x, true, nil, 0)
	chk.ForwardRows(cut, rows)
	chk.ForwardRows(0, cut)
	sameBits(t, "dropout/forward", got.Data, want.Data)
	if chk.RNGState() != ref.RNGState() {
		t.Fatalf("stream at %#x after the chunked pass, %#x after the one-shot one", chk.RNGState(), ref.RNGState())
	}

	wantDX := ref.Backward(dOut.Clone())
	gotDX := dOut.Clone()
	chk.BackwardRows(gotDX, cut, rows) // backward chunks may run in any order
	chk.BackwardRows(gotDX, 0, cut)
	sameBits(t, "dropout/backward", gotDX.Data, wantDX.Data)

	// Identity pass: the rows pass through unchanged, nothing is drawn, and
	// the backward leaves the gradient alone.
	before := chk.RNGState()
	chk.ForwardBegin(got, x, false, nil, 0)
	chk.ForwardRows(0, rows)
	sameBits(t, "dropout/identity-forward", got.Data, x.Data)
	chk.BackwardRows(gotDX, 0, rows)
	sameBits(t, "dropout/identity-backward", gotDX.Data, wantDX.Data)
	if chk.RNGState() != before {
		t.Fatal("identity pass moved the mask stream")
	}
}

// TestDropoutMaskApplySplitMatchesForwardRows: rows the caller writes into
// the destination itself, drawn and masked by ApplyMaskedRows one block at a
// time with the blocks in shuffled order, reproduce a plain ascending
// ForwardRows pass bit for bit — the contract the halo drain rests on when it
// masks one peer's block at a time, as it lands. The late rows stand where
// they are, or in shuffled blocks of a dense block (ForwardBegin's at, n).
func TestDropoutMaskApplySplitMatchesForwardRows(t *testing.T) {
	const rows, cols, cut, n = 23, 7, 9, 30
	x := randMat(tensor.NewRNG(3), rows, cols)
	// Poison a "late" row with ±0 and extreme values to pin the dropped-
	// element semantics (a literal 0, not value*0).
	copy(x.Row(rows-1), []float32{float32(math.Inf(1)), float32(math.Copysign(0, -1)), -1e30, 0, 1, -2, 3})
	// Three peers' blocks of late rows, applied out of order.
	blocks := [][2]int{{18, 23}, {cut, 13}, {13, 18}}
	// The late rows' places in a block of n: each peer's block ascending,
	// the blocks interleaved among themselves.
	shuffled := []int32{1, 6, 7, 12, 2, 3, 4, 5, 29, 9, 10, 11, 27, 28}

	for name, at := range map[string][]int32{"in-place": nil, "shuffled": shuffled} {
		place := 0
		if at != nil {
			place = n
		}
		ref := NewDropout(0.4, tensor.NewRNG(9))
		chk := NewDropout(0.4, tensor.NewRNG(9))

		want := tensor.New(rows, cols)
		ref.ForwardBegin(want, x, true, at, place)
		ref.ForwardRows(0, cut)
		ref.ForwardRows(cut, rows)

		// The late rows land in the destination itself, as a peer's payload does.
		got := x.Clone()
		chk.ForwardBegin(got, x, true, at, place)
		chk.ForwardRows(0, cut)
		for _, b := range blocks {
			chk.ApplyMaskedRows(b[0], b[1])
		}
		sameBits(t, "dropout/mask-apply/"+name, got.Data, want.Data)

		// Identity pass: the apply is a no-op.
		got = x.Clone()
		chk.ForwardBegin(got, x, false, at, place)
		chk.ApplyMaskedRows(0, 2)
		sameBits(t, "dropout/identity-mask-apply/"+name, got.Data, x.Data)
	}
	d := NewDropout(0.4, tensor.NewRNG(9))
	d.ForwardBegin(x.Clone(), x, true, nil, 0)
	panicsWith(t, "dropout/apply-range", "rows [20,24) applied, the destination has 23 rows",
		func() { d.ApplyMaskedRows(20, 24) })
}

// TestDropoutSelectionMatchesDenseDraw: a pass whose halo rows are a
// selection from a dense block (ForwardBegin's at, n) gives each selected
// row the masks one dense pass over the inner rows and the whole block gives
// it, and leaves the stream where that pass ends — for no rows, one row,
// runs of adjacent rows, a random selection and every row, with the halo
// rows dealt to peers, stored peer by peer and applied a peer's block at a
// time in shuffled peer order. This is what lets the
// epoch engine hold rows only for the boundary slots it sampled without
// moving a mask or a checkpointed stream position. The masks are read back
// by masking matrices of ones, forward and backward: 1/(1−rate) where the
// bit is set, 0 where it is clear.
func TestDropoutSelectionMatchesDenseDraw(t *testing.T) {
	const nIn, n = 5, 40
	rng := tensor.NewRNG(12)
	var random, all []int32
	for r := int32(0); r < n; r++ {
		all = append(all, r)
		if rng.Float32() < 0.3 {
			random = append(random, r)
		}
	}
	ones := func(rows, cols int) *tensor.Matrix {
		m := tensor.New(rows, cols)
		m.Fill(1)
		return m
	}
	for _, cols := range []int{7, 48, 41, 1} { // words straddle rows
		for name, at := range map[string][]int32{
			"none":   nil,
			"first":  {0},
			"single": {17},
			"last":   {n - 1},
			"runs":   {2, 3, 4, 9, 20, 21, 38, 39},
			"random": random,
			"all":    all,
		} {
			dense := NewDropout(0.4, tensor.NewRNG(9))
			dm := ones(nIn+n, cols)
			dense.Forward(dm, true)

			sparse := NewDropout(0.4, tensor.NewRNG(9))
			sm := ones(nIn+len(at), cols)
			order, ptr := ownerMajor(rng, at, 3)
			sparse.ForwardBegin(sm, sm, true, order, n)
			for _, j := range rng.Perm(3) {
				sparse.ApplyMaskedRows(nIn+ptr[j], nIn+ptr[j+1])
			}
			sparse.ForwardRows(0, nIn)

			// The forward's output, and the masks the backward reads after
			// every row has been drawn.
			dg, sg := ones(nIn+n, cols), ones(nIn+len(at), cols)
			dense.Backward(dg)
			sparse.Backward(sg)
			for pass, pair := range [][2]*tensor.Matrix{{sm, dense.outBuf}, {sg, dg}} {
				got, want := pair[0], pair[1]
				label := fmt.Sprintf("dropout/selection/%s/cols=%d/pass%d", name, cols, pass)
				sameBits(t, label+"/inner", got.Data[:nIn*cols], want.Data[:nIn*cols])
				for i, r := range order {
					sameBits(t, label, got.Row(nIn+i), want.Row(nIn+int(r)))
				}
			}
			if sparse.RNGState() != dense.RNGState() {
				t.Fatalf("%s: stream at %#x after the selection, %#x after the dense pass", name, sparse.RNGState(), dense.RNGState())
			}
		}
	}

	// Identity pass: no masks, no stream movement.
	d := NewDropout(0.4, tensor.NewRNG(9))
	before := d.RNGState()
	m := randMat(rng, nIn+2, 7)
	keep := m.Clone()
	d.ForwardBegin(m, m, false, []int32{1, 5}, n)
	d.ForwardRows(0, nIn)
	d.ApplyMaskedRows(nIn, nIn+2)
	sameBits(t, "dropout/selection/identity", m.Data, keep.Data)
	if d.RNGState() != before {
		t.Fatal("identity pass moved the mask stream")
	}
}

// ownerMajor deals the block rows at out to k peers at random and stores them
// peer by peer, each peer's in the order given, as the epoch engine stores a
// partition's halo rows: it returns the stored order, in which peer j holds
// [ptr[j], ptr[j+1]).
func ownerMajor(rng *tensor.RNG, at []int32, k int) (order []int32, ptr []int) {
	peer := make([]int, len(at))
	ptr = make([]int, k+1)
	for i := range at {
		peer[i] = rng.Intn(k)
		ptr[peer[i]+1]++
	}
	for j := 0; j < k; j++ {
		ptr[j+1] += ptr[j]
	}
	order = make([]int32, len(at))
	next := slices.Clone(ptr[:k])
	for i, r := range at {
		order[next[peer[i]]] = r
		next[peer[i]]++
	}
	return order, ptr
}

// rowList lists the rows [r0, r1).
func rowList(r0, r1 int) []int32 {
	rows := make([]int32, 0, r1-r0)
	for r := r0; r < r1; r++ {
		rows = append(rows, int32(r))
	}
	return rows
}

// TestGATHaloLayoutMatchesDenseSpace: a layer trained on a compacted node
// space — only some halo rows kept, stored peer by peer as the epoch engine
// stores them, the dropped ones edgeless — and told where the kept rows
// stood (SetHaloLayout) reproduces, bit for bit, the layer trained on the
// dense space with arbitrary values in the dropped rows: outputs, input
// gradients of the kept rows, and the parameter gradients, dW's reduction
// over all rows included. One-shot and staged (the staged pass preps the
// peers' blocks in shuffled order), inline and with the kernel pool forced
// wide (the reduction's worker split), on widths with a scalar tail.
func TestGATHaloLayoutMatchesDenseSpace(t *testing.T) {
	for _, width := range []int{1, 4} {
		for _, tc := range []chunkedCase{
			{"small", 13, 9, 3, 5, 3, 0.4},
			{"none-kept", 21, 8, 4, 6, 5, 0},
			{"split", 200, 120, 5, 9, 7, 0.3},
		} {
			rng := tensor.NewRNG(404)
			dense := localGraph(rng, tc.nIn, tc.nBd, tc.deg, tc.haloP)
			_, _, used := splitHalo(dense, tc.nIn)
			// Keep every referenced halo row and every fifth other one, and
			// store them peer by peer: halo row nIn+i of the compact space is
			// slot order[i].
			var at []int32
			for s := tc.nIn; s < dense.N; s++ {
				if (len(used) > 0 && used[0] == int32(s)) || s%5 == 0 {
					at = append(at, int32(s-tc.nIn))
				}
				if len(used) > 0 && used[0] == int32(s) {
					used = used[1:]
				}
			}
			order, ptr := ownerMajor(rng, at, 3)
			rowOf := make([]int32, dense.N) // dense row → compact row, or −1
			for v := range rowOf {
				rowOf[v] = int32(v)
				if v >= tc.nIn {
					rowOf[v] = -1
				}
			}
			for i, s := range order {
				rowOf[tc.nIn+int(s)] = int32(tc.nIn + i)
			}
			compact := &graph.Graph{N: tc.nIn + len(at), Indptr: dense.Indptr[:tc.nIn+len(at)+1], Indices: make([]int32, len(dense.Indices))}
			for e, u := range dense.Indices {
				compact.Indices[e] = rowOf[u]
			}
			hDense := randMat(rng, dense.N, tc.inDim)
			hCompact := tensor.New(compact.N, tc.inDim)
			for v, r := range rowOf {
				if r >= 0 {
					copy(hCompact.Row(int(r)), hDense.Row(v))
				}
			}
			dOut := randMat(rng, tc.nIn, tc.outDim)
			free, dep, _ := splitHalo(compact, tc.nIn)

			restore := tensor.ForceParallelism(width)
			ref := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(6))
			ref.SetAgg(graph.NewAggIndex(dense))
			wantOut := ref.Forward(dense, hDense, tc.nIn)
			wantDH := ref.Backward(dOut)

			one := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(6))
			one.SetAgg(graph.NewAggIndex(compact))
			one.SetHaloLayout(rowOf[tc.nIn:])
			oneOut := one.Forward(compact, hCompact, tc.nIn)
			oneDH := one.Backward(dOut)

			stg := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(6))
			stg.SetAgg(graph.NewAggIndex(compact))
			stg.SetHaloLayout(rowOf[tc.nIn:])
			stgOut := stg.ForwardBegin(compact, hCompact, tc.nIn)
			stg.ForwardPrep(0, tc.nIn)
			for _, j := range rng.Perm(3) {
				stg.ForwardPrep(tc.nIn+ptr[j], tc.nIn+ptr[j+1])
			}
			stg.ForwardRows(free)
			stg.ForwardRows(dep)
			stg.BackwardBegin(dOut)
			stgDH := stg.BackwardHalo(dep, tc.nIn)
			stg.BackwardFinish(free, tc.nIn)
			restore()

			for _, got := range []struct {
				name    string
				l       *GATConv
				out, dH *tensor.Matrix
			}{{"one-shot", one, oneOut, oneDH}, {"staged", stg, stgOut, stgDH}} {
				name := fmt.Sprintf("width %d/%s/%s", width, tc.name, got.name)
				sameBits(t, name+"/forward", got.out.Data, wantOut.Data)
				sameBits(t, name+"/backward-inner", got.dH.Data[:tc.nIn*tc.inDim], wantDH.Data[:tc.nIn*tc.inDim])
				for i, s := range order {
					sameBits(t, name+"/backward-halo", got.dH.Row(tc.nIn+i), wantDH.Row(tc.nIn+int(s)))
				}
				sameBits(t, name+"/DW", got.l.DW.Data, ref.DW.Data)
				sameBits(t, name+"/DA1", got.l.DA1.Data, ref.DA1.Data)
				sameBits(t, name+"/DA2", got.l.DA2.Data, ref.DA2.Data)
			}
		}
	}
}

// TestGATForwardPrepRowsMatchesRange: per-row-list prep must reproduce the
// range form bit for bit in any duplicate-free cover order, so a caller can
// prep exactly the rows that changed (the serving engine's feature update).
func TestGATForwardPrepRowsMatchesRange(t *testing.T) {
	for _, tc := range chunkedCases {
		rng := tensor.NewRNG(77)
		g := localGraph(rng, tc.nIn, tc.nBd, tc.deg, tc.haloP)
		h := randMat(rng, g.N, tc.inDim)
		free, dep, slots := splitHalo(g, tc.nIn)

		ref := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(5))
		chk := NewGATConv(tc.inDim, tc.outDim, ReLUAct, tensor.NewRNG(5))
		ref.SetAgg(graph.NewAggIndex(g))
		chk.SetAgg(graph.NewAggIndex(g))

		want := ref.ForwardBegin(g, h, tc.nIn)
		ref.ForwardPrep(0, g.N)
		ref.ForwardRows(free)
		ref.ForwardRows(dep)

		got := chk.ForwardBegin(g, h, tc.nIn)
		chk.ForwardPrep(0, tc.nIn)
		chk.ForwardRows(free)
		// Prep the referenced halo slots in reversed per-row batches (any
		// cover order must do), then complete the dependent rows.
		for i := len(slots) - 1; i >= 0; i-- {
			chk.ForwardPrepRows(slots[i : i+1])
		}
		chk.ForwardRows(dep)
		sameBits(t, tc.name+"/gat-prep-rows", got.Data, want.Data)
	}
}
