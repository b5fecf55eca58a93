package nn

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// GATConv is a single-head graph attention layer (Veličković et al., 2017),
// used by the paper's Table 10 to show BNS-GCN generalizes beyond
// GraphSAGE:
//
//	e_vu = LeakyReLU(a₁·(W h_v) + a₂·(W h_u))   for u ∈ N(v) ∪ {v}
//	α_v· = softmax(e_v·)
//	z_v  = σ( Σ_u α_vu (W h_u) )
//
// Self-attention is always included so isolated nodes still produce output.
type GATConv struct {
	InDim, OutDim int
	Act           Activation
	NegSlope      float32 // LeakyReLU slope; default 0.2

	W   *tensor.Matrix // InDim × OutDim
	A1  *tensor.Matrix // 1 × OutDim (attention on destination v)
	A2  *tensor.Matrix // 1 × OutDim (attention on source u)
	DW  *tensor.Matrix
	DA1 *tensor.Matrix
	DA2 *tensor.Matrix

	// Caches.
	g     *graph.Graph
	nOut  int
	nAll  int
	h     *tensor.Matrix
	wh    *tensor.Matrix // nAll × OutDim
	alpha [][]float32    // per output node: attention over (self + neighbors)
	eRaw  [][]float32    // pre-LeakyReLU attention logits
	pre   *tensor.Matrix

	// Layer-owned scratch: alpha/eRaw subslice the flat alphaBuf/rawBuf
	// (one segment per output node), and the per-node e/raw allocations of
	// the unoptimized layer are gone. Reused across calls; capacity grows
	// to the largest epoch subgraph seen.
	alphaBuf, rawBuf, s1, s2, dAlpha, da1, da2 []float32
	out, dPre, dWh, dWScratch, dH              *tensor.Matrix

	// haloAt/haloN place the pass's trailing input rows in a dense block of
	// haloN rows (SetHaloLayout); nil/0 means the input is dense as it is.
	haloAt []int32
	haloN  int

	// sweep is forwardBlock bound once at construction: binding it per pass
	// would allocate a closure per call.
	sweep func(rows []int32)
}

// NewGATConv creates a single-head GAT layer with Xavier initialization.
func NewGATConv(inDim, outDim int, act Activation, rng *tensor.RNG) *GATConv {
	l := &GATConv{
		InDim:    inDim,
		OutDim:   outDim,
		Act:      act,
		NegSlope: 0.2,
		W:        tensor.New(inDim, outDim),
		A1:       tensor.New(1, outDim),
		A2:       tensor.New(1, outDim),
		DW:       tensor.New(inDim, outDim),
		DA1:      tensor.New(1, outDim),
		DA2:      tensor.New(1, outDim),
	}
	tensor.XavierInit(l.W, inDim, outDim, rng)
	tensor.XavierInit(l.A1, outDim, 1, rng)
	tensor.XavierInit(l.A2, outDim, 1, rng)
	l.sweep = l.forwardBlock
	return l
}

// Params implements Layer.
func (l *GATConv) Params() []*tensor.Matrix { return []*tensor.Matrix{l.W, l.A1, l.A2} }

// Grads implements Layer.
func (l *GATConv) Grads() []*tensor.Matrix { return []*tensor.Matrix{l.DW, l.DA1, l.DA2} }

// ZeroGrad implements Layer.
func (l *GATConv) ZeroGrad() { zeroGradAll(l.Grads()) }

// SetAgg implements the trainers' layer interface. Attention needs no
// aggregation plan — its forward sweep claims fixed-size row blocks and its
// backward is node-serial — so the plan is ignored.
func (l *GATConv) SetAgg(*graph.AggIndex) {}

// SetHaloLayout tells the layer that the last len(at) input rows of its
// passes are a selection from a dense block of n rows — input row
// h.Rows−len(at)+i stands at row at[i] of the block (at ascending) and the
// block's other rows, which the pass never sees, are rows without edges. The
// epoch engine's node space is such a selection of the partition's boundary
// slots. Everything the layer computes per row is indifferent to it; dW, a
// reduction over all input rows, is summed in the order the dense input
// would be (tensor.MatMulTransAAt), so its bits do not depend on which rows
// were selected. at is kept, not copied, and holds until the next call;
// (nil, 0), the initial state, is a dense input.
func (l *GATConv) SetHaloLayout(at []int32, n int) { l.haloAt, l.haloN = at, n }

// Forward computes attention outputs for the first nOut rows of h: the
// chunked pass (ForwardBegin, ForwardPrep, ForwardRows) run over every row
// at once.
func (l *GATConv) Forward(g *graph.Graph, h *tensor.Matrix, nOut int) *tensor.Matrix {
	out := l.ForwardBegin(g, h, nOut)
	l.ForwardPrep(0, h.Rows)
	tensor.ForRange(0, nOut, l.sweep)
	return out
}

// ForwardBegin starts a chunked forward pass: it validates shapes, installs
// the backward caches, and returns the output matrix whose rows ForwardRows
// will fill. ForwardPrep must cover a node's feature row before any output
// row that attends to it runs. Chunking cannot change results — every output
// row is produced by the same per-node computation in the same flat buffer
// slot — so any duplicate-free partition of [0, nOut) reproduces Forward bit
// for bit; the chunked-pass property tests pin this.
func (l *GATConv) ForwardBegin(g *graph.Graph, h *tensor.Matrix, nOut int) *tensor.Matrix {
	if h.Cols != l.InDim {
		panic(fmt.Sprintf("nn: GATConv input dim %d, want %d", h.Cols, l.InDim))
	}
	if g.N != h.Rows || nOut > h.Rows {
		panic(fmt.Sprintf("nn: GATConv graph %d nodes, features %d rows, nOut %d", g.N, h.Rows, nOut))
	}
	l.g, l.nOut, l.nAll, l.h = g, nOut, h.Rows, h
	tensor.EnsureMat(&l.wh, h.Rows, l.OutDim)
	tensor.EnsureF32(&l.s1, h.Rows)
	tensor.EnsureF32(&l.s2, h.Rows)
	// One attention entry per (node, self∪neighbor) pair, packed flat.
	total := nOut + int(g.Indptr[nOut]-g.Indptr[0])
	tensor.EnsureF32(&l.alphaBuf, total)
	tensor.EnsureF32(&l.rawBuf, total)
	if cap(l.alpha) < nOut {
		l.alpha = make([][]float32, nOut)
		l.eRaw = make([][]float32, nOut)
	}
	l.alpha = l.alpha[:nOut]
	l.eRaw = l.eRaw[:nOut]
	tensor.EnsureMat(&l.pre, nOut, l.OutDim)
	return tensor.EnsureMat(&l.out, nOut, l.OutDim)
}

// ForwardPrep computes Wh and the attention scores s1/s2 for feature rows
// [r0, r1). Rows are independent, so ranges may run in any order; each row
// must be covered exactly once per pass.
func (l *GATConv) ForwardPrep(r0, r1 int) {
	tensor.MatMulRange(l.wh, l.h, l.W, r0, r1)
	for u := r0; u < r1; u++ {
		l.scoreRow(u)
	}
}

// ForwardPrepRows is ForwardPrep for an explicit row list: the epoch drain
// preps exactly one peer's halo slots the moment that peer's payload lands.
// Per row both forms run the same kernel body and the same scoreRow, so any
// duplicate-free cover of the rows a pass reads is bit-identical.
func (l *GATConv) ForwardPrepRows(rows []int32) {
	tensor.MatMulRows(l.wh, l.h, l.W, rows)
	for _, u := range rows {
		l.scoreRow(int(u))
	}
}

// scoreRow computes node u's attention scores from its Wh row.
func (l *GATConv) scoreRow(u int) {
	whu := l.wh.Row(u)
	l.s1[u] = tensor.Dot(l.A1.Row(0), whu)
	l.s2[u] = tensor.Dot(l.A2.Row(0), whu)
}

// ForwardRows computes the output rows listed in rows (each row of [0, nOut)
// must appear exactly once across all calls of one pass), in blocks claimed
// from the kernel worker pool. Every input row a listed output row reads
// must be in place before the call.
func (l *GATConv) ForwardRows(rows []int32) {
	tensor.ForRows(rows, l.sweep)
}

// forwardBlock is the forward sweep's body. forwardNode writes only
// node-owned state (the node's flat alpha/raw segment and its pre/out rows)
// and reads only the shared prep arrays, so blocks may run concurrently and
// in any order without changing a bit.
func (l *GATConv) forwardBlock(rows []int32) {
	for _, v := range rows {
		l.forwardNode(int(v))
	}
}

// forwardNode computes attention and the activated output for node v. Its
// alpha/raw segment lives at the deterministic flat offset
// v + Indptr[v]−Indptr[0] — the packing a sequential full pass produces — so
// chunk order cannot move entries.
func (l *GATConv) forwardNode(v int) {
	g := l.g
	nbrs := g.Neighbors(int32(v))
	k := len(nbrs) + 1 // self first, then neighbors
	off := v + int(g.Indptr[v]-g.Indptr[0])
	e := l.alphaBuf[off : off+k]
	raw := l.rawBuf[off : off+k]
	s1, s2 := l.s1, l.s2
	// Per-edge coefficient fill: e_i = s1[v] + s2[u_i], self first.
	e[0] = s1[v] + s2[v]
	s1v := s1[v]
	en := e[1:]
	for i, u := range nbrs {
		en[i] = s1v + s2[u]
	}
	copy(raw, e)
	l.eRaw[v] = raw
	for i, x := range e {
		if x < 0 {
			e[i] = x * l.NegSlope
		}
	}
	// Softmax over k entries.
	mx := e[0]
	for _, x := range e {
		if x > mx {
			mx = x
		}
	}
	var sum float64
	for i, x := range e {
		ex := math.Exp(float64(x - mx))
		e[i] = float32(ex)
		sum += ex
	}
	inv := float32(1 / sum)
	for i := range e {
		e[i] *= inv
	}
	l.alpha[v] = e
	// z_v = Σ α · Wh: self term, then the attention-weighted neighbor
	// gather on the engine's blocked axpy (bit-identical to sequential
	// per-edge Axpy).
	row := l.pre.Row(v)
	self := l.wh.Row(v)
	for j, x := range self {
		row[j] = e[0] * x
	}
	tensor.GatherAxpy(row, l.wh, nbrs, e[1:])
	activationRow(l.out.Row(v), l.Act, row)
}

// Backward accumulates parameter gradients and returns the gradient with
// respect to the full input matrix (nAll × InDim).
func (l *GATConv) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	l.BackwardParams(dOut)
	dH := tensor.EnsureMat(&l.dH, l.nAll, l.InDim)
	tensor.MatMulTransB(dH, l.dWh, l.W)
	return dH
}

// BackwardParams is the backward of a layer whose input needs no gradient —
// the first of a stack, fed the dataset's features: the node sweep and the
// fold into DW/DA1/DA2, the bits Backward accumulates, without the input
// gradient dWh·Wᵀ (which it never allocates).
func (l *GATConv) BackwardParams(dOut *tensor.Matrix) {
	l.preGrad(dOut)
	for v := 0; v < l.nOut; v++ {
		l.backwardNode(v, 0, l.nAll, true)
	}
	l.backwardParams()
}

// preGrad checks dOut's shape, computes the pre-activation gradient for every
// output row and zeroes the Wh-gradient and attention-vector accumulators.
func (l *GATConv) preGrad(dOut *tensor.Matrix) {
	if dOut.Rows != l.nOut || dOut.Cols != l.OutDim {
		panic(fmt.Sprintf("nn: GATConv backward shape %dx%d, want %dx%d", dOut.Rows, dOut.Cols, l.nOut, l.OutDim))
	}
	dPre := tensor.EnsureMat(&l.dPre, dOut.Rows, dOut.Cols)
	copy(dPre.Data, dOut.Data)
	activationGrad(l.Act, dPre, l.pre)
	dWh := tensor.EnsureMat(&l.dWh, l.nAll, l.OutDim)
	dWh.Zero()
	da1 := tensor.EnsureF32(&l.da1, l.OutDim)
	da2 := tensor.EnsureF32(&l.da2, l.OutDim)
	for j := range da1 {
		da1[j] = 0
		da2[j] = 0
	}
}

// BackwardBegin starts a staged backward pass: the pre-activation gradient,
// cleared accumulators, and the input-gradient matrix. The staged schedule
// (BackwardBegin → BackwardHalo → BackwardFinish) reproduces the one-shot
// Backward bit for bit: halo rows of dWh receive contributions only from
// outputs with a halo neighbor, sweeps are destination-filtered so every +=
// lands on each destination row (and on da1/da2) in exactly the order of the
// unsplit sweep, and the dH matmuls are per-row stable.
func (l *GATConv) BackwardBegin(dOut *tensor.Matrix) {
	l.preGrad(dOut)
	tensor.EnsureMat(&l.dH, l.nAll, l.InDim) // rows computed stage by stage
}

// BackwardHalo completes the halo rows [nIn, nAll) of the input gradient so
// they can be sent while the rest of the backward pass runs. haloSrc must
// list, in ascending order, every output row with at least one neighbor
// ≥ nIn. The returned matrix is the shared input-gradient accumulator: its
// rows ≥ nIn are final, rows < nIn complete only after BackwardFinish.
func (l *GATConv) BackwardHalo(haloSrc []int32, nIn int) *tensor.Matrix {
	for _, v := range haloSrc {
		l.backwardNode(int(v), nIn, l.nAll, false)
	}
	tensor.MatMulTransBRange(l.dH, l.dWh, l.W, nIn, l.nAll)
	return l.dH
}

// BackwardFinish accumulates DW/DA1/DA2 and completes the inner rows
// [0, nIn) of the input gradient. The sweep revisits every output row (the
// attention backward of a halo-dependent row also feeds inner destinations),
// so freeSrc is unused by GAT — SAGE needs it.
func (l *GATConv) BackwardFinish(freeSrc []int32, nIn int) *tensor.Matrix {
	for v := 0; v < l.nOut; v++ {
		l.backwardNode(v, 0, nIn, true)
	}
	l.backwardParams()
	tensor.MatMulTransBRange(l.dH, l.dWh, l.W, 0, nIn)
	return l.dH
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
func (l *GATConv) backwardNode(v, destLo, destHi int, accumA bool) {
	nbrs := l.g.Neighbors(int32(v))
	alpha := l.alpha[v]
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

// backwardParams folds the per-pass accumulators into DA1/DA2 and DW.
func (l *GATConv) backwardParams() {
	for j := 0; j < l.OutDim; j++ {
		l.DA1.Data[j] += l.da1[j]
		l.DA2.Data[j] += l.da2[j]
	}
	dW := tensor.EnsureMat(&l.dWScratch, l.InDim, l.OutDim)
	tensor.MatMulTransAAt(dW, l.h, l.dWh, l.haloAt, l.haloN)
	l.DW.Add(dW)
}
