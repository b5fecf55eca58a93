package nn

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// SAGEConv is a GraphSAGE layer with a mean aggregator, the paper's primary
// model (Section 2):
//
//	z_v   = mean_{u ∈ N(v)} h_u                     (Eq. 1)
//	h'_v  = σ(W · concat(z_v, h_v) + b)             (Eq. 2)
//
// The mean is normalized by invDeg[v], supplied by the caller. In exact
// training invDeg[v] = 1/|N_global(v)|; under BNS the caller keeps the
// global-degree normalizer while halo feature rows arrive pre-scaled by 1/p,
// which makes z_v an unbiased estimator of the full-graph aggregation
// (Section 3.2).
//
// Aggregation runs on the FUSED aggregate-project engine
// (tensor.SpMMMatMul and the MatMulTrans*Split family): the forward gathers
// each aggregated row z_v and feeds it to the projection FMAs while still
// cache-hot — the nOut × 2·InDim concat matrix of the textbook formulation
// is never materialized, eliminating its three DRAM round-trips (SpMM write,
// self-copy write, MatMul read) from the epoch hot path. Of the forward's
// intermediates only z (needed by the backward's dW) is kept: the bias and
// the activation are applied in the output rows themselves, act′ is read back
// from them, and the backward differentiates the activation in the caller's
// dOut. The backward is fused symmetrically: one sweep produces the
// aggregation gradient dz AND writes the self term straight into the
// input-gradient rows, and dW reads [z|h] in place. The backward gather runs
// over the TRANSPOSED index of the aggregation plan (SetAgg — mandatory), so
// everything parallelizes over edge-balanced chunks with no scatter races;
// chunk weights include the per-row projection cost
// (graph.AggIndex.ChunksFor) so wide layers stay balanced. The
// per-destination accumulation order is fixed by construction: the self term
// first (an overwrite), then the incoming neighbor contributions in
// ascending source order — exactly what the textbook formulation over an
// explicit concat produces, which the layer tests keep as a straight-line
// reference and pin every pass shape against bit for bit.
//
// The layer holds its weights and their gradients. Everything a pass reads
// and writes besides them — the graph, plan and input it runs over, its
// activations, scratch and input gradient — is a SAGEPass, the state of
// whoever runs the pass (see Bind).
type SAGEConv struct {
	InDim, OutDim int
	Act           Activation

	W  *tensor.Matrix // (2*InDim) × OutDim
	B  *tensor.Matrix // 1 × OutDim
	DW *tensor.Matrix
	DB *tensor.Matrix

	// The pass state the layer runs in: the one Bind installed, or own.
	*sagePass
	own SAGEPass
}

// SAGEPass is the state of a SAGEConv pass, the pass in progress or the last
// one run. Its buffers are reused across passes, regrown in place to the
// largest one seen, so a steady-state training loop allocates nothing; all
// are fully rewritten (or zeroed) before use. The zero value is ready.
type SAGEPass struct {
	// agg is the aggregation plan (transposed index + edge-balanced chunks)
	// of the graph the pass runs over. Every pass checks it against the
	// graph it is handed.
	agg *graph.AggIndex

	// Forward caches for backward.
	g      *graph.Graph
	nOut   int
	nAll   int
	invDeg []float32
	hIn    *tensor.Matrix // input features of the pass
	z      *tensor.Matrix // nOut × InDim aggregated half
	dOut   *tensor.Matrix // the backward's output gradient, act′ applied

	// out is also the pass's pre-activation: the bias and the activation are
	// applied in place, and act′ is read back from the activated row.
	out, dz, dH, dWScratch *tensor.Matrix
}

// NewSAGEConv creates a SAGE layer with Xavier-initialized weights.
func NewSAGEConv(inDim, outDim int, act Activation, rng *tensor.RNG) *SAGEConv {
	l := &SAGEConv{
		InDim:  inDim,
		OutDim: outDim,
		Act:    act,
		W:      tensor.New(2*inDim, outDim),
		B:      tensor.New(1, outDim),
		DW:     tensor.New(2*inDim, outDim),
		DB:     tensor.New(1, outDim),
	}
	tensor.XavierInit(l.W, 2*inDim, outDim, rng)
	l.sagePass = &l.own
	return l
}

// Bind makes p the state the layer's passes run in, from the next pass on:
// SetAgg and every stage of a pass must run in the state its ForwardBegin
// did. nil binds the state the layer keeps for itself, the one a new layer
// starts in, so a layer used on its own (the one-shot Forward and Backward)
// needs no Bind. The layer keeps no reference to a state it has been unbound
// from.
func (l *SAGEConv) Bind(p *SAGEPass) {
	if p == nil {
		p = &l.own
	}
	l.sagePass = p
}

// Params implements Layer.
func (l *SAGEConv) Params() []*tensor.Matrix { return []*tensor.Matrix{l.W, l.B} }

// Grads implements Layer.
func (l *SAGEConv) Grads() []*tensor.Matrix { return []*tensor.Matrix{l.DW, l.DB} }

// ZeroGrad implements Layer.
func (l *SAGEConv) ZeroGrad() { zeroGradAll(l.Grads()) }

// SetAgg installs the aggregation plan for subsequent passes in the bound
// state. ai must be built from the same graph the passes receive (core's
// layer adapter installs its layout's plan as every pass begins). A layer
// without a plan, or with one whose size does not match the pass's graph,
// panics at pass entry.
func (l *SAGEConv) SetAgg(ai *graph.AggIndex) { l.agg = ai }

// checkPlan rejects a missing aggregation plan for layer's pass, and one that
// was not built from g: a stale plan would gather over the wrong transposed
// index and silently corrupt gradients. Node and edge counts are an O(1)
// proxy that catches the real failure modes (a plan never rebuilt for this
// epoch's or batch's graph).
func checkPlan(layer string, ai *graph.AggIndex, g *graph.Graph) {
	if ai == nil {
		panic(fmt.Sprintf("nn: %s has no aggregation plan for the pass graph (%d nodes / %d edges): SetAgg one built from it",
			layer, g.N, len(g.Indices)))
	}
	if n, e := len(ai.IncIndptr)-1, len(ai.IncSrc); n != g.N || e != len(g.Indices) {
		panic(fmt.Sprintf("nn: %s aggregation plan covers %d nodes / %d edges, the pass graph has %d nodes / %d edges (stale plan: rebuild it with the graph)",
			layer, n, e, g.N, len(g.Indices)))
	}
}

// ForwardBegin starts a forward pass: it validates shapes and the plan,
// installs the backward caches, and returns the output matrix whose rows
// ForwardRows will fill. Chunking cannot change results — every output row
// is computed with exactly the same per-row arithmetic whichever call covers
// it (see tensor.SpMMMatMulRows) and rows are independent — so any
// duplicate-free partition of [0, nOut) reproduces Forward bit for bit; the
// layer tests pin this.
func (l *SAGEConv) ForwardBegin(g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32) *tensor.Matrix {
	if h.Cols != l.InDim {
		panic(fmt.Sprintf("nn: SAGEConv input dim %d, want %d", h.Cols, l.InDim))
	}
	if g.N != h.Rows {
		panic(fmt.Sprintf("nn: SAGEConv graph has %d nodes, features %d rows", g.N, h.Rows))
	}
	if nOut > h.Rows || len(invDeg) < nOut {
		panic(fmt.Sprintf("nn: SAGEConv nOut=%d rows=%d invDeg=%d", nOut, h.Rows, len(invDeg)))
	}
	checkPlan("SAGEConv", l.agg, g)
	if int(g.Indptr[nOut]) != len(g.Indices) {
		// The backward gathers dz rows through the transposed index, and dz
		// has only nOut rows: a source beyond them has no gradient to give.
		panic(fmt.Sprintf("nn: SAGEConv rows [%d,%d) are inputs only but have %d outgoing edges",
			nOut, g.N, len(g.Indices)-int(g.Indptr[nOut])))
	}
	l.g, l.nOut, l.nAll, l.invDeg, l.hIn = g, nOut, h.Rows, invDeg, h
	tensor.EnsureMat(&l.z, nOut, l.InDim)
	return tensor.EnsureMat(&l.out, nOut, l.OutDim)
}

// Forward computes outputs for the first nOut rows of h, aggregating over g
// (whose node space matches h's rows). invDeg[v] is the normalizer for node
// v's neighbor sum; len(invDeg) >= nOut. It is ForwardBegin plus one
// full-range sweep over the plan's projection-weighted chunks.
func (l *SAGEConv) Forward(g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32) *tensor.Matrix {
	out := l.ForwardBegin(g, h, nOut, invDeg)
	// One edge gather is an InDim-wide add and the projection 2·InDim·OutDim
	// FLOPs per row, so a row weighs ≈ 2·OutDim edge-equivalents on top of
	// its degree.
	tensor.SpMMMatMul(out, l.z, h, l.W, g.Indptr, g.Indices, invDeg, l.agg.ChunksFor(int64(2*l.OutDim)))
	for v := 0; v < nOut; v++ {
		l.finishRow(v)
	}
	return out
}

// ForwardPrep computes per-node precomputations for feature rows [r0, r1).
// SAGE has none; GAT uses it for Wh and the attention scores.
func (l *SAGEConv) ForwardPrep(r0, r1 int) {}

// ForwardRows computes the output rows listed in rows (each row of [0, nOut)
// must appear exactly once across all calls of one pass). A row may be
// computed as soon as the feature rows of its neighbors are in place — the
// pipelined engine runs halo-independent rows while boundary features are
// still in flight.
func (l *SAGEConv) ForwardRows(rows []int32) {
	tensor.SpMMMatMulRows(l.out, l.z, l.hIn, l.W, l.g.Indptr, l.g.Indices, l.invDeg, rows)
	for _, v := range rows {
		l.finishRow(int(v))
	}
}

// finishRow turns row v's projection into its output in place: out_v += b,
// then out_v = σ(out_v).
func (l *SAGEConv) finishRow(v int) {
	row := l.out.Row(v)
	for j, b := range l.B.Row(0) {
		row[j] += b
	}
	activate(row, l.Act)
}

// addNeighborGrads accumulates the neighbor term of the input gradient for
// every destination row in [destLo, destHi): dH.Row(u) += Σ invDeg[v]·dz_v
// over the sources v with u ∈ N(v), in ascending source order — a parallel
// gather over the plan's transposed index.
func (l *SAGEConv) addNeighborGrads(destLo, destHi int) {
	tensor.SpMMTransRange(l.dH, l.dz, l.agg.IncIndptr, l.agg.IncSrc, l.invDeg, l.agg.IncChunks, destLo, destHi)
}

// Backward consumes dOut (nOut × OutDim), accumulates DW/DB, and returns the
// gradient with respect to the full input feature matrix (nAll × InDim),
// including halo rows. dOut is overwritten with the pre-activation gradient
// (dOut ⊙ act′). The returned matrix is the bound state's scratch, valid
// until the next Backward in it. It is BackwardBegin plus the full-range
// form of the staged sweeps.
func (l *SAGEConv) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	l.BackwardBegin(dOut)
	l.backwardParams()
	// dz and the self terms for every output row in one sweep, then the
	// neighbor gather in ascending source order.
	tensor.MatMulTransBSplit(l.dz, l.dH, l.dOut, l.W)
	l.addNeighborGrads(0, l.nAll)
	return l.dH
}

// BackwardParams is the backward of a layer whose input needs no gradient —
// the first of a stack, fed the dataset's features: it consumes dOut and
// accumulates DW/DB, the bits Backward accumulates, and computes no dz and no
// input gradient (and never allocates them). Like Backward, it overwrites dOut
// with the pre-activation gradient.
func (l *SAGEConv) BackwardParams(dOut *tensor.Matrix) {
	l.preGrad(dOut)
	l.backwardParams()
}

// preGrad checks dOut's shape and turns it, in place, into the
// pre-activation gradient of every output row, which the pass then reads.
func (l *SAGEConv) preGrad(dOut *tensor.Matrix) {
	if dOut.Rows != l.nOut || dOut.Cols != l.OutDim {
		panic(fmt.Sprintf("nn: SAGEConv backward shape %dx%d, want %dx%d", dOut.Rows, dOut.Cols, l.nOut, l.OutDim))
	}
	activationGrad(l.Act, dOut, l.out)
	l.dOut = dOut
}

// BackwardBegin starts a backward pass: it turns dOut in place into the
// pre-activation gradient for every output row and prepares the
// input-gradient accumulator.
// The staged schedule (BackwardBegin → BackwardHalo → BackwardFinish)
// reproduces the one-shot Backward bit for bit: a halo row of the input
// gradient receives contributions only from outputs with a halo neighbor
// (ascending, like the full gather), and an inner row only from the finish
// sweep (self overwrite, then ascending sources), so every accumulation
// lands on each destination row in exactly the order of the unsplit pass.
func (l *SAGEConv) BackwardBegin(dOut *tensor.Matrix) {
	l.preGrad(dOut)
	tensor.EnsureMat(&l.dz, l.nOut, l.InDim) // rows filled sweep by sweep
	// The split sweeps overwrite every dH row < nOut exactly once before any
	// gather lands on it, so only the tail rows [nOut, nAll) — halo rows and
	// any non-output inner rows, which only ever receive gather
	// accumulations — need zeroing.
	dH := tensor.EnsureMat(&l.dH, l.nAll, l.InDim)
	clear(dH.Data[l.nOut*l.InDim:])
}

// backwardParams accumulates DW/DB from the pass's pre-activation gradient.
// dW reads the concat operand's halves in place ([z|h]).
func (l *SAGEConv) backwardParams() {
	dW := tensor.EnsureMat(&l.dWScratch, 2*l.InDim, l.OutDim)
	tensor.MatMulTransASplit(dW, l.z, l.hIn, l.dOut)
	l.DW.Add(dW)
	for v := 0; v < l.nOut; v++ {
		tensor.AddTo(l.DB.Row(0), l.dOut.Row(v))
	}
}

// BackwardHalo completes the halo rows [nIn, nAll) of the input gradient so
// they can be sent while the rest of the backward pass runs. haloSrc must
// list, in ascending order, every output row with at least one neighbor
// ≥ nIn. The returned matrix is the shared input-gradient accumulator: its
// rows ≥ nIn are final, rows < nIn complete only after BackwardFinish.
func (l *SAGEConv) BackwardHalo(haloSrc []int32, nIn int) *tensor.Matrix {
	// Each halo source's dz row and self term (overwriting its dH row, before
	// any gather reaches it) land in one sweep. Every source of a halo
	// destination has a halo neighbor, i.e. is in haloSrc — its dz row was
	// just computed — so the row gather over the transposed index is
	// complete and in ascending order.
	tensor.MatMulTransBSplitRows(l.dz, l.dH, l.dOut, l.W, haloSrc)
	l.addNeighborGrads(nIn, l.nAll)
	return l.dH
}

// BackwardFinish accumulates DW/DB and completes the inner rows [0, nIn) of
// the input gradient. freeSrc must list, ascending, every output row not in
// BackwardHalo's haloSrc; together they cover [0, nOut) exactly once.
func (l *SAGEConv) BackwardFinish(freeSrc []int32, nIn int) *tensor.Matrix {
	l.backwardParams()
	tensor.MatMulTransBSplitRows(l.dz, l.dH, l.dOut, l.W, freeSrc)
	l.addNeighborGrads(0, nIn)
	return l.dH
}

// InvDegrees returns 1/degree for every node of g (0 for isolated nodes),
// the standard normalizer for exact full-graph mean aggregation.
func InvDegrees(g *graph.Graph) []float32 {
	return InvDegreesInto(make([]float32, g.N), g)
}

// InvDegreesInto is InvDegrees writing into a caller-owned slice (length
// g.N, fully overwritten), for allocation-free batch loops. Returns inv.
func InvDegreesInto(inv []float32, g *graph.Graph) []float32 {
	for v := 0; v < g.N; v++ {
		if d := g.Degree(int32(v)); d > 0 {
			inv[v] = 1 / float32(d)
		} else {
			inv[v] = 0
		}
	}
	return inv
}
