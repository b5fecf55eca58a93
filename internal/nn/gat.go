package nn

import (
	"fmt"

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
//
// The layer holds its weights and their gradients. Everything a pass reads
// and writes besides them — the graph, plan, halo layout and input it runs
// over, its activations, attention, scratch and input gradient — is a
// GATPass, the state of whoever runs the pass (see Bind).
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

	// The pass state the layer runs in: the one Bind installed, or own.
	*gatPass
	own GATPass

	// sweep, edgeSweep and pullSweep are forwardBlock, edgeBlock and
	// pullBlock bound once at construction: binding them per pass would
	// allocate a closure per call.
	sweep, edgeSweep, pullSweep func(rows []int32)
}

// GATPass is the state of a GATConv pass, the pass in progress or the last
// one run. Its buffers are reused across passes, their capacity grown to the
// largest pass graph seen, so a steady-state training loop allocates
// nothing. The zero value is ready.
type GATPass struct {
	// agg is the aggregation plan of the pass graph: the backward builds
	// each dWh row by a gather over its transposed index. Every pass checks
	// it against the graph it is handed.
	agg *graph.AggIndex

	// Caches.
	g    *graph.Graph
	nOut int
	nAll int
	h    *tensor.Matrix
	wh   *tensor.Matrix // nAll × OutDim

	// alphaBuf holds every output row's attention over (self + neighbors),
	// one flat segment per row (segment). deBuf holds the backward's
	// attention-logit gradients in the same segments, so the forward's
	// alphaBuf stays intact and Backward can repeat after one Forward. The
	// backward recomputes a logit's sign from s1 and s2 rather than keeping
	// the logits. out is also the pre-activation: the activation is applied
	// in place and act′ read back from it. dPre is the pre-activation
	// gradient — the caller's dOut, differentiated in place — copied with a1
	// and a2 stacked under it: the rows the dWh gather reads.
	alphaBuf, deBuf, s1, s2, da1, da2 []float32
	out, dPre, dWh, dWScratch, dH     *tensor.Matrix

	// haloRow places the pass's trailing input rows in a dense block
	// (SetHaloLayout); nil means the input is dense as it is.
	haloRow []int32
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
	l.sweep, l.edgeSweep, l.pullSweep = l.forwardBlock, l.edgeBlock, l.pullBlock
	l.gatPass = &l.own
	return l
}

// Bind makes p the state the layer's passes run in, as SAGEConv.Bind does:
// SetAgg, SetHaloLayout and every stage of a pass run in the bound state,
// and nil binds the one the layer keeps for itself.
func (l *GATConv) Bind(p *GATPass) {
	if p == nil {
		p = &l.own
	}
	l.gatPass = p
}

// Params implements Layer.
func (l *GATConv) Params() []*tensor.Matrix { return []*tensor.Matrix{l.W, l.A1, l.A2} }

// Grads implements Layer.
func (l *GATConv) Grads() []*tensor.Matrix { return []*tensor.Matrix{l.DW, l.DA1, l.DA2} }

// ZeroGrad implements Layer.
func (l *GATConv) ZeroGrad() { zeroGradAll(l.Grads()) }

// SetAgg installs the aggregation plan for subsequent passes in the bound
// state, as SAGEConv's does: ai must be built from the graph the passes
// receive (core's layer adapter installs its layout's plan as every pass
// begins). The forward sweep does not read it; the backward gathers each dWh
// row over its transposed index. A layer without a plan, or with one whose
// size does not match the pass's graph, panics at pass entry.
func (l *GATConv) SetAgg(ai *graph.AggIndex) { l.agg = ai }

// SetHaloLayout tells the layer that the trailing input rows of its passes
// are a selection from a dense block of len(rowOf) rows, stored in any
// order: row v of the block is input row rowOf[v], or, where rowOf[v] is −1,
// a row without edges that the pass never sees. The epoch engine's node space
// is such a selection of the partition's boundary slots, stored peer by
// peer. Everything the layer computes per row is indifferent to it; dW, a
// reduction over all input rows, is summed in the order the dense input
// would be (tensor.MatMulTransAAt), so its bits depend neither on which rows
// were selected nor on where they are stored. rowOf is kept in the bound
// state, not copied, and holds until the next call; nil, a new state's, is
// a dense input.
func (l *GATConv) SetHaloLayout(rowOf []int32) { l.haloRow = rowOf }

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
	checkPlan("GATConv", l.agg, g)
	l.g, l.nOut, l.nAll, l.h = g, nOut, h.Rows, h
	tensor.EnsureMat(&l.wh, h.Rows, l.OutDim)
	tensor.EnsureF32(&l.s1, h.Rows)
	tensor.EnsureF32(&l.s2, h.Rows)
	// One attention entry per (node, self∪neighbor) pair, packed flat.
	tensor.EnsureF32(&l.alphaBuf, nOut+int(g.Indptr[nOut]-g.Indptr[0]))
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
// node-owned state (the node's alpha segment and its out row)
// and reads only the shared prep arrays, so blocks may run concurrently and
// in any order without changing a bit.
func (l *GATConv) forwardBlock(rows []int32) {
	var buf [expBlock]float64
	for _, v := range rows {
		l.forwardNode(int(v), &buf)
	}
}

// segment returns the bounds of row v's segment of the flat per-edge buffers
// alphaBuf and deBuf: self first, then one entry per edge of v in edge order,
// at the offset v + Indptr[v]−Indptr[0] — the packing a sequential full pass
// produces — so chunk order cannot move entries.
func (l *GATConv) segment(v int) (lo, hi int) {
	ip := l.g.Indptr
	lo = v + int(ip[v]-ip[0])
	return lo, lo + 1 + int(ip[v+1]-ip[v])
}

// forwardNode computes attention and the activated output for node v; buf
// is scratch for the softmax's exps.
func (l *GATConv) forwardNode(v int, buf *[expBlock]float64) {
	nbrs := l.g.Neighbors(int32(v))
	lo, hi := l.segment(v)
	e := l.alphaBuf[lo:hi]
	s1, s2 := l.s1, l.s2
	// Per-edge coefficient fill: e_i = s1[v] + s2[u_i], self first.
	e[0] = s1[v] + s2[v]
	s1v := s1[v]
	en := e[1:]
	for i, u := range nbrs {
		en[i] = s1v + s2[u]
	}
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
	for i0 := 0; i0 < len(e); i0 += expBlock {
		part := e[i0:min(i0+expBlock, len(e))]
		ex := buf[:len(part)]
		for i, x := range part {
			ex[i] = float64(x - mx)
		}
		tensor.ExpInPlace(ex)
		for i, x := range ex {
			part[i] = float32(x)
			sum += x
		}
	}
	inv := float32(1 / sum)
	for i := range e {
		e[i] *= inv
	}
	// z_v = Σ α · Wh: self term, then the attention-weighted neighbor
	// gather on the engine's blocked axpy (bit-identical to sequential
	// per-edge Axpy), then the activation in place.
	row := l.out.Row(v)
	self := l.wh.Row(v)
	for j, x := range self {
		row[j] = e[0] * x
	}
	tensor.GatherAxpy(row, l.wh, nbrs, e[1:])
	activate(row, l.Act)
}

// The backward runs in two row-parallel passes over the kernel pool. The
// edge pass (edgeBlock) computes, per output row v, the attention gradient
// dα and from it the logit gradient de into v's deBuf segment. The pull pass
// (pullBlock) then builds each row of dWh as one chain of terms, gathered over
// the plan's transposed index: the rows of dPre (α·dz), a1 and a2 (de·a),
// added in the order a node-serial sweep over v ascending adds them (see
// pullRow; the tests keep that sweep as refGATBackward). Each term is one
// FMA per element whether it runs as an Axpy or inside a GatherAxpy, so the
// bits are the sweep's at every pool width. Only da1 and da2, one
// accumulator each across every edge, stay serial (attnGrads).

// Backward accumulates parameter gradients and returns the gradient with
// respect to the full input matrix (nAll × InDim). dOut is overwritten with
// the pre-activation gradient (dOut ⊙ act′).
func (l *GATConv) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	l.BackwardParams(dOut)
	dH := tensor.EnsureMat(&l.dH, l.nAll, l.InDim)
	tensor.MatMulTransB(dH, l.dWh, l.W)
	return dH
}

// BackwardParams is the backward of a layer whose input needs no gradient —
// the first of a stack, fed the dataset's features: the edge and pull passes
// and the fold into DW/DA1/DA2, the bits Backward accumulates, without the
// input gradient dWh·Wᵀ (which it never allocates). Like Backward, it
// overwrites dOut with the pre-activation gradient.
func (l *GATConv) BackwardParams(dOut *tensor.Matrix) {
	l.preGrad(dOut)
	tensor.ForRange(0, l.nOut, l.edgeSweep)
	tensor.ForRange(0, l.nAll, l.pullSweep)
	l.backwardParams()
}

// preGrad checks dOut's shape, turns it in place into the pre-activation
// gradient of every output row, copies that into dPre with a1 and a2 stacked
// under it, and zeroes the attention-vector accumulators. dWh needs no
// zeroing: the pull pass clears each row it builds.
func (l *GATConv) preGrad(dOut *tensor.Matrix) {
	if dOut.Rows != l.nOut || dOut.Cols != l.OutDim {
		panic(fmt.Sprintf("nn: GATConv backward shape %dx%d, want %dx%d", dOut.Rows, dOut.Cols, l.nOut, l.OutDim))
	}
	activationGrad(l.Act, dOut, l.out)
	dPre := tensor.EnsureMat(&l.dPre, l.nOut+2, l.OutDim)
	copy(dPre.Data, dOut.Data)
	copy(dPre.Row(l.nOut), l.A1.Row(0))
	copy(dPre.Row(l.nOut+1), l.A2.Row(0))
	tensor.EnsureF32(&l.deBuf, len(l.alphaBuf))
	tensor.EnsureMat(&l.dWh, l.nAll, l.OutDim)
	clear(tensor.EnsureF32(&l.da1, l.OutDim))
	clear(tensor.EnsureF32(&l.da2, l.OutDim))
}

// BackwardBegin starts a staged backward pass: the pre-activation gradient
// (in dOut, which it overwrites), cleared accumulators, and the
// input-gradient matrix. The staged schedule (BackwardBegin → BackwardHalo →
// BackwardFinish) reproduces the one-shot Backward bit for bit: every output
// row's edge pass runs exactly once, in one stage or the other, and a dWh
// row's chain is the same whichever stage builds it — a halo row's sources
// are all halo-dependent rows, whose edge pass BackwardHalo runs first. The
// dH matmuls are per-row stable.
func (l *GATConv) BackwardBegin(dOut *tensor.Matrix) {
	l.preGrad(dOut)
	tensor.EnsureMat(&l.dH, l.nAll, l.InDim) // rows computed stage by stage
}

// BackwardHalo completes the halo rows [nIn, nAll) of the input gradient so
// they can be sent while the rest of the backward pass runs. The halo rows
// are input rows only (nIn ≥ nOut), and haloSrc must list every output row
// with at least one neighbor ≥ nIn; their edge pass runs here, and only here.
// The returned matrix is the shared input-gradient accumulator: its rows
// ≥ nIn are final, rows < nIn complete only after BackwardFinish.
func (l *GATConv) BackwardHalo(haloSrc []int32, nIn int) *tensor.Matrix {
	if nIn < l.nOut {
		panic(fmt.Sprintf("nn: GATConv.BackwardHalo with nIn %d < nOut %d: halo rows must be input-only", nIn, l.nOut))
	}
	tensor.ForRows(haloSrc, l.edgeSweep)
	tensor.ForRange(nIn, l.nAll, l.pullSweep)
	tensor.MatMulTransBRange(l.dH, l.dWh, l.W, nIn, l.nAll)
	return l.dH
}

// BackwardFinish runs the edge pass of freeSrc — every output row not in
// BackwardHalo's haloSrc; together they cover [0, nOut) exactly once —
// builds the inner rows [0, nIn) of dWh, accumulates DW/DA1/DA2 and completes
// the inner rows of the input gradient.
func (l *GATConv) BackwardFinish(freeSrc []int32, nIn int) *tensor.Matrix {
	tensor.ForRows(freeSrc, l.edgeSweep)
	tensor.ForRange(0, nIn, l.pullSweep)
	l.backwardParams()
	tensor.MatMulTransBRange(l.dH, l.dWh, l.W, 0, nIn)
	return l.dH
}

// edgeBlock is the edge pass's body: per listed output row v, over v's flat
// segment (self first, then neighbors u_i), dα_i = dz_v·Wh_{u_i} and then the
// softmax and LeakyReLU backward
//
//	de_i = α_i (dα_i − Σ_j α_j dα_j),  × NegSlope where s1[v]+s2[u_i] < 0,
//
// the forward's raw logit, recomputed to the same bits. dα is written into
// the de segment and overwritten in place. It writes only v's segment, so
// blocks may run concurrently and in any order.
func (l *GATConv) edgeBlock(rows []int32) {
	g, s2 := l.g, l.s2
	for _, v32 := range rows {
		v := int(v32)
		nbrs := g.Neighbors(v32)
		lo, hi := l.segment(v)
		alpha, de := l.alphaBuf[lo:hi], l.deBuf[lo:hi]
		dz := l.dPre.Row(v)
		de[0] = tensor.Dot(dz, l.wh.Row(v))
		tensor.GatherDots(de[1:], dz, l.wh, nbrs)
		inner := tensor.Dot(alpha, de)
		s1v := l.s1[v]
		for i := range de {
			u := v32
			if i > 0 {
				u = nbrs[i-1]
			}
			d := alpha[i] * (de[i] - inner)
			if s1v+s2[u] < 0 {
				d *= l.NegSlope
			}
			de[i] = d
		}
	}
}

// pullBlock is the pull pass's body: it builds each listed row of dWh (see
// pullRow). A row reads the edge pass's segments and writes only itself, so
// blocks may run concurrently and in any order.
func (l *GATConv) pullBlock(rows []int32) {
	var c chain
	c.src = l.dPre
	for _, r := range rows {
		l.pullRow(&c, int(r))
	}
}

// pullRow builds dWh row r from zero as one chain over the stacked rows of
// dPre (dz_v at row v, a1 at row nOut, a2 at row nOut+1), in the sweep's
// order: sources v ascending, each output row v adding
//
//   - if v ≠ r, for each edge v→r: α·dz_v, then for each edge v→r: de·a2;
//   - if v = r (r's own block): α_self·dz_r, α·dz_r per self-loop edge,
//     de_self·a1, de_self·a2, then per neighbor edge de·a1 (and de·a2 when the
//     neighbor is r itself).
//
// Input rows ≥ nOut are not swept, so only sources < nOut contribute.
func (l *GATConv) pullRow(c *chain, r int) {
	ai, nOut := l.agg, int32(l.nOut)
	lo, hi := ai.IncIndptr[r], ai.IncIndptr[r+1]
	srcs, edges := ai.IncSrc[lo:hi], ai.IncEdge[lo:hi]
	c.dst = l.dWh.Row(r)
	clear(c.dst)
	mid, before := 0, min(int32(r), nOut)
	for mid < len(srcs) && srcs[mid] < before {
		mid++
	}
	l.pullSources(c, srcs[:mid], edges[:mid])
	if r < l.nOut {
		mid = l.pullOwn(c, r, srcs, edges, mid)
	}
	end := mid
	for end < len(srcs) && srcs[end] < nOut {
		end++
	}
	l.pullSources(c, srcs[mid:end], edges[mid:end])
	c.flush()
}

// runEnd returns the end of the run of entries equal to srcs[i] (the
// transposed index keeps a source's duplicate edges adjacent, in edge order).
func runEnd(srcs []int32, i int) int {
	t := i
	for t < len(srcs) && srcs[t] == srcs[i] {
		t++
	}
	return t
}

// pullSources adds the terms of every listed source v ≠ r: per source, α·dz_v
// for each of its edges to r, then de·a2 for each. A source's edges are one
// run of entries (see runEnd), so each entry adds its α term and the run's
// last entry adds the run's de terms. Edge e of row v has flat slot
// v+1+e−Indptr[0].
func (l *GATConv) pullSources(c *chain, srcs, edges []int32) {
	a2, base := int32(l.nOut)+1, 1-int(l.g.Indptr[0])
	start := 0
	for j, v := range srcs {
		c.room(1)
		c.put(v, l.alphaBuf[int(v)+base+int(edges[j])])
		if j+1 < len(srcs) && srcs[j+1] == v {
			continue
		}
		for _, e := range edges[start : j+1] {
			c.room(1)
			c.put(a2, l.deBuf[int(v)+base+int(e)])
		}
		start = j + 1
	}
}

// pullOwn adds row r's own block. Entries [i, t) are r's self-loop edges, if
// any; it returns t.
func (l *GATConv) pullOwn(c *chain, r int, srcs, edges []int32, i int) int {
	t := i
	if i < len(srcs) && int(srcs[i]) == r {
		t = runEnd(srcs, i)
	}
	g, r32 := l.g, int32(r)
	lo, hi := l.segment(r)
	alpha, de := l.alphaBuf[lo:hi], l.deBuf[lo:hi]
	a1, a2 := int32(l.nOut), int32(l.nOut)+1
	c.room(1)
	c.put(r32, alpha[0])
	for _, e := range edges[i:t] {
		c.room(1)
		c.put(r32, alpha[1+int(int64(e)-g.Indptr[r])])
	}
	c.room(2)
	c.put(a1, de[0])
	c.put(a2, de[0])
	for q, u := range g.Neighbors(r32) {
		c.room(2)
		c.put(a1, de[q+1])
		if u == r32 {
			c.put(a2, de[q+1])
		}
	}
	return t
}

// attnGrads accumulates da1 and da2 over every output row v ascending, the
// sweep's order: per entry of v's segment (self first), de·Wh_v
// into da1 and de·Wh_u into da2. Each is one chain across the pass.
func (l *GATConv) attnGrads() {
	var c1, c2 chain
	c1.dst, c1.src = l.da1, l.wh
	c2.dst, c2.src = l.da2, l.wh
	for v := 0; v < l.nOut; v++ {
		v32 := int32(v)
		lo, hi := l.segment(v)
		de := l.deBuf[lo:hi]
		for _, d := range de {
			c1.room(1)
			c1.put(v32, d)
		}
		c2.room(1)
		c2.put(v32, de[0])
		for q, u := range l.g.Neighbors(v32) {
			c2.room(1)
			c2.put(u, de[q+1])
		}
	}
	c1.flush()
	c2.flush()
}

// backwardParams folds the pass's attention-vector gradients into DA1/DA2 and
// dW into DW.
func (l *GATConv) backwardParams() {
	l.attnGrads()
	for j := 0; j < l.OutDim; j++ {
		l.DA1.Data[j] += l.da1[j]
		l.DA2.Data[j] += l.da2[j]
	}
	dW := tensor.EnsureMat(&l.dWScratch, l.InDim, l.OutDim)
	tensor.MatMulTransAAt(dW, l.h, l.dWh, l.haloRow)
	l.DW.Add(dW)
}

// chain accumulates dst += Σ coef·src.Row(idx), one term at a time in the
// order put appends them, handing the terms to tensor.GatherAxpy in pieces of
// at most tensor.CoefPiece. GatherAxpy holds the row in registers across a
// piece and a piece boundary only stores and reloads it, so the bits are
// those of one Axpy per term in the same order.
type chain struct {
	dst  []float32
	src  *tensor.Matrix
	n    int
	idx  [tensor.CoefPiece]int32
	coef [tensor.CoefPiece]float32
}

// room flushes the chain unless m more terms fit in its piece (m ≤
// tensor.CoefPiece); put then appends them without a check.
func (c *chain) room(m int) {
	if c.n+m > tensor.CoefPiece {
		c.flush()
	}
}

func (c *chain) put(row int32, a float32) {
	c.idx[c.n], c.coef[c.n] = row, a
	c.n++
}

func (c *chain) flush() {
	if c.n > 0 {
		tensor.GatherAxpy(c.dst, c.src, c.idx[:c.n], c.coef[:c.n])
		c.n = 0
	}
}
