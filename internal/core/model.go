package core

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Arch selects the model family.
type Arch string

const (
	// ArchSAGE is GraphSAGE with a mean aggregator, the paper's main model.
	ArchSAGE Arch = "sage"
	// ArchGAT is single-head graph attention (Table 10 scenario).
	ArchGAT Arch = "gat"
)

// ModelConfig describes a GCN model as in the paper's Section 4 setups
// (e.g. Reddit: 4 layers, 256 hidden, lr 0.01, dropout 0.5).
type ModelConfig struct {
	Arch    Arch
	Layers  int
	Hidden  int
	Dropout float32
	LR      float32
	Seed    uint64
}

// Validate checks the configuration.
func (c *ModelConfig) Validate() error {
	if c.Arch != ArchSAGE && c.Arch != ArchGAT {
		return fmt.Errorf("core: unknown arch %q", c.Arch)
	}
	if c.Layers < 1 {
		return fmt.Errorf("core: need >=1 layer, got %d", c.Layers)
	}
	if c.Hidden < 1 {
		return fmt.Errorf("core: hidden dim %d", c.Hidden)
	}
	if !(c.Dropout >= 0 && c.Dropout < 1) {
		return fmt.Errorf("core: dropout %v", c.Dropout)
	}
	if !(c.LR > 0 && !math.IsInf(float64(c.LR), 1)) {
		return fmt.Errorf("core: learning rate %v, want finite and > 0", c.LR)
	}
	return nil
}

// Layout is one graph a layer pass runs over, and everything a layer reads
// about it: the graph, its sparse-aggregation plan (graph.AggIndex: the
// transposed index plus edge-balanced chunk boundaries), the mean-aggregation
// normalizer InvDeg (a row per output row at least; attention ignores it),
// the NOut leading rows the pass computes outputs for; the halo placement,
// two inverse maps: the graph's trailing len(HaloAt) input rows, its halo
// rows, stand at rows HaloAt[i] of a dense block whose row v is input row
// HaloRow[v] (−1: not held) — the epoch space's sampled slots, stored peer by
// peer, among all the partition's slots; nil/nil means the input is dense as
// it is; and the row split, the output rows whose aggregation reads no halo
// row (Free) and the rest (Dep), each ascending. A layer takes its layout at
// the start of every pass, so no pass can run over another graph's plan.
//
// Build makes the dense layout of a graph, every row Free, the one every
// single-process pass runs over; the epoch engine fills the fields of its own
// (LocalPartition.lay). A Layout holds its plan by value and rebuilds it in
// place: do not copy one.
type Layout struct {
	G         *graph.Graph
	Agg       graph.AggIndex
	InvDeg    []float32
	NOut      int
	HaloAt    []int32
	HaloRow   []int32
	Free, Dep []int32

	deg []float32 // Build's normalizer storage
}

// Build makes lo the layout of a pass over every row of g: it rebuilds the
// aggregation plan, the 1/degree normalizer and the row split in place
// (allocation-free once capacities have warmed up) and returns lo.
func (lo *Layout) Build(g *graph.Graph) *Layout {
	lo.G, lo.NOut, lo.HaloAt, lo.HaloRow = g, g.N, nil, nil
	lo.Agg.Build(g)
	lo.InvDeg = nn.InvDegreesInto(tensor.EnsureF32(&lo.deg, g.N), g)
	lo.Free, lo.Dep = tensor.EnsureI32(&lo.Free, g.N), lo.Dep[:0]
	for v := range lo.Free {
		lo.Free[v] = int32(v)
	}
	return lo
}

// nIn is where lo's halo rows begin: every row below it is an inner row.
func (lo *Layout) nIn() int { return lo.G.N - len(lo.HaloAt) }

// GraphLayer is the uniform layer interface the trainers drive, each through
// the Model's stages: forward over a layout producing outputs for its first
// NOut rows, backward returning input gradients for all rows — or, for the
// first layer of a stack, whose input is data, the parameter gradients alone.
//
//   - ForwardBegin → ForwardPrep/ForwardRows: rows whose aggregation reads no
//     halo row can run while boundary features are in flight; the remaining
//     rows run once they are in. Any duplicate-free row partition gives the
//     same bits.
//   - BackwardBegin → BackwardHalo → BackwardFinish: halo-row input gradients
//     complete first (so they can be sent), then parameter gradients and the
//     inner rows while the peer gradients are in flight.
//
// A pass's backward runs over the layout its forward began with, which must
// stay unchanged until the backward is done. Every backward form overwrites
// its dOut with the pre-activation gradient (dOut ⊙ act′), so a caller hands
// it a gradient it no longer needs; the layer reads dOut until the pass ends.
type GraphLayer interface {
	nn.Layer
	// ForwardBegin prepares a pass over lo and returns the output matrix the
	// ForwardRows calls will fill.
	ForwardBegin(lo *Layout, h *tensor.Matrix) *tensor.Matrix
	// ForwardPrep runs per-node precomputations for feature rows [r0, r1)
	// (a no-op for SAGE; Wh and attention scores for GAT).
	ForwardPrep(r0, r1 int)
	// ForwardRows computes the listed output rows; each row of [0, NOut)
	// must be covered exactly once per pass.
	ForwardRows(rows []int32)

	// BackwardBegin turns dOut in place into the pre-activation gradients
	// and resets the pass accumulators.
	BackwardBegin(dOut *tensor.Matrix)
	// BackwardHalo completes the halo rows [nIn, g.N) of the input gradient:
	// haloSrc lists (ascending) every output row with a neighbor ≥ nIn. The
	// halo rows are input rows only: nIn ≥ NOut.
	// Rows < nIn of the returned matrix are valid only after BackwardFinish.
	BackwardHalo(haloSrc []int32, nIn int) *tensor.Matrix
	// BackwardFinish accumulates parameter gradients and completes rows
	// [0, nIn); freeSrc lists (ascending) the output rows not in haloSrc.
	BackwardFinish(freeSrc []int32, nIn int) *tensor.Matrix
	// BackwardParams is the backward without the input gradient: it
	// accumulates the same parameter-gradient bits and neither computes nor
	// allocates anything sized by the input rows that only the input
	// gradient needs.
	BackwardParams(dOut *tensor.Matrix)

	InputDim() int
	OutputDim() int
}

// sageLayer adapts nn.SAGEConv to GraphLayer: a pass aggregates over the
// layout's plan, normalized by its InvDeg. SAGE reduces over output rows
// only, so where the halo rows stand does not matter to it.
type sageLayer struct{ *nn.SAGEConv }

func (l sageLayer) ForwardBegin(lo *Layout, h *tensor.Matrix) *tensor.Matrix {
	l.SetAgg(&lo.Agg)
	return l.SAGEConv.ForwardBegin(lo.G, h, lo.NOut, lo.InvDeg)
}
func (l sageLayer) InputDim() int  { return l.SAGEConv.InDim }
func (l sageLayer) OutputDim() int { return l.SAGEConv.OutDim }

// gatLayer adapts nn.GATConv to GraphLayer: attention needs no normalizer,
// but its backward gathers over the layout's plan, and its dW — a reduction
// over input rows — is summed where the layout's halo rows stand in their
// dense block.
type gatLayer struct{ *nn.GATConv }

func (l gatLayer) ForwardBegin(lo *Layout, h *tensor.Matrix) *tensor.Matrix {
	l.SetAgg(&lo.Agg)
	l.SetHaloLayout(lo.HaloRow)
	return l.GATConv.ForwardBegin(lo.G, h, lo.NOut)
}
func (l gatLayer) InputDim() int  { return l.GATConv.InDim }
func (l gatLayer) OutputDim() int { return l.GATConv.OutDim }

// Model is a stack of graph layers with per-layer dropout, replicated on
// every partition during parallel training.
type Model struct {
	Config   ModelConfig
	LayersL  []GraphLayer
	Dropouts []*nn.Dropout
	InDim    int
	OutDim   int

	// Memoized views of the (static) layer stack, so per-epoch calls to
	// Layers/Params/Grads allocate nothing.
	layersCache []nn.Layer
	paramsCache []*tensor.Matrix
	gradsCache  []*tensor.Matrix

	// gradSlab is the storage of every gradient matrix, laid end to end in
	// Grads order.
	gradSlab []float32

	// Forward's state: each layer's input when its dropout pass is active,
	// and the layout Backward runs over.
	inputs []*tensor.Matrix
	lo     *Layout
}

// NewModel builds a model with deterministic initialization from cfg.Seed.
// All replicas built with the same seed hold bit-identical weights. Every
// trainer and the checkpoint loader build their model here, so a dataset
// without feature columns or classes (datagen's StructureOnly) is refused
// here, before any pass can run on it.
func NewModel(cfg ModelConfig, inDim, outDim int) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if inDim < 1 || outDim < 1 {
		return nil, fmt.Errorf("core: model needs input and output widths >= 1, got %d -> %d (a structure-only dataset has no features to train on)", inDim, outDim)
	}
	rng := tensor.NewRNG(cfg.Seed)
	m := &Model{Config: cfg, InDim: inDim, OutDim: outDim}
	for l := 0; l < cfg.Layers; l++ {
		in, out := layerDims(l, cfg.Layers, cfg.Hidden, inDim, outDim)
		act := nn.ReLUAct
		if l == cfg.Layers-1 {
			act = nn.NoAct
		}
		switch cfg.Arch {
		case ArchSAGE:
			m.LayersL = append(m.LayersL, sageLayer{nn.NewSAGEConv(in, out, act, rng)})
		case ArchGAT:
			m.LayersL = append(m.LayersL, gatLayer{nn.NewGATConv(in, out, act, rng)})
		}
		drop := nn.NewDropout(cfg.Dropout, rng)
		drop.Layer = l
		m.Dropouts = append(m.Dropouts, drop)
	}
	for _, l := range m.LayersL {
		m.layersCache = append(m.layersCache, l)
		m.paramsCache = append(m.paramsCache, l.Params()...)
		m.gradsCache = append(m.gradsCache, l.Grads()...)
	}
	m.inputs = make([]*tensor.Matrix, cfg.Layers)
	m.gradSlab = make([]float32, nn.ParamCount(m.layersCache))
	off := 0
	for _, g := range m.gradsCache {
		n := copy(m.gradSlab[off:], g.Data)
		g.Data = m.gradSlab[off : off+n : off+n]
		off += n
	}
	return m, nil
}

// layerDims returns the input and output width of layer l in a stack of
// layers: inDim into the first, outDim out of the last, hidden in between.
func layerDims(l, layers, hidden, inDim, outDim int) (in, out int) {
	in, out = hidden, hidden
	if l == 0 {
		in = inDim
	}
	if l == layers-1 {
		out = outDim
	}
	return in, out
}

// Layers returns the stack as nn.Layer values, for parameter counts. The
// returned slice is shared; callers must not mutate it.
func (m *Model) Layers() []nn.Layer { return m.layersCache }

// Forward runs the stack over the dense layout lo (Build's) and input x, each
// layer through beginLayer, and returns the last layer's output; train
// enables dropout. An identity dropout pass hands a layer its input itself,
// so an inference pass leaves every layer's pass open over x and the outputs
// below it.
func (m *Model) Forward(lo *Layout, x *tensor.Matrix, train bool) *tensor.Matrix {
	m.lo = lo
	h := x
	for l := range m.LayersL {
		in := h
		if train && m.Dropouts[l].Rate != 0 {
			in = tensor.EnsureMat(&m.inputs[l], h.Rows, h.Cols)
		}
		h = m.beginLayer(l, lo, in, h, train)
	}
	return h
}

// Backward propagates d, the gradient of the last Forward's output, down the
// stack through the backward stages, accumulating every layer's parameter
// gradients. d is overwritten, and so is each layer's input gradient as the
// layer below consumes it. The first layer's input is data: it gets no input
// gradient, and its dropout no backward.
func (m *Model) Backward(d *tensor.Matrix) {
	for l := len(m.LayersL) - 1; l > 0; l-- {
		m.backwardHalo(l, m.lo, d)
		d = m.backwardFinish(l, m.lo)
	}
	m.LayersL[0].BackwardParams(d)
}

// beginLayer begins layer l's pass over lo: the dropout pass, placed by lo's
// halo placement, writes the layer's input x from h, the rows in hand (lo's
// leading h.Rows); the layer begins over x, preps those rows and computes
// lo.Free. It returns the layer's output, whose lo.Dep rows the caller
// computes once it has written and masked x's halo rows. x and h may be one
// matrix when the dropout pass is identity.
func (m *Model) beginLayer(l int, lo *Layout, x, h *tensor.Matrix, train bool) *tensor.Matrix {
	layer, drop := m.LayersL[l], m.Dropouts[l]
	drop.ForwardBegin(x, h, train, lo.HaloAt, len(lo.HaloRow))
	drop.ForwardRows(0, h.Rows)
	out := layer.ForwardBegin(lo, x)
	layer.ForwardPrep(0, h.Rows)
	layer.ForwardRows(lo.Free)
	return out
}

// backwardHalo starts layer l's backward over lo from the output gradient d
// and completes the halo rows of the input gradient, through the layer and,
// in place, its dropout. Returns the input gradient; its inner rows are valid
// after backwardFinish.
func (m *Model) backwardHalo(l int, lo *Layout, d *tensor.Matrix) *tensor.Matrix {
	layer, nIn := m.LayersL[l], lo.nIn()
	layer.BackwardBegin(d)
	dH := layer.BackwardHalo(lo.Dep, nIn)
	m.Dropouts[l].BackwardRows(dH, nIn, dH.Rows)
	return dH
}

// backwardFinish accumulates layer l's parameter gradients and completes the
// inner rows of its input gradient, through the layer and its dropout.
func (m *Model) backwardFinish(l int, lo *Layout) *tensor.Matrix {
	nIn := lo.nIn()
	dH := m.LayersL[l].BackwardFinish(lo.Free, nIn)
	m.Dropouts[l].BackwardRows(dH, 0, nIn)
	return dH
}

// LayerInputDims returns the input feature dimension of every layer, the d^(ℓ)
// sequence of Eq. 4.
func (m *Model) LayerInputDims() []int {
	dims := make([]int, len(m.LayersL))
	for i, l := range m.LayersL {
		dims[i] = l.InputDim()
	}
	return dims
}

// ZeroGrad clears all parameter gradients.
func (m *Model) ZeroGrad() {
	for _, l := range m.LayersL {
		l.ZeroGrad()
	}
}

// Params returns all trainable parameters in deterministic order. The
// returned slice is shared; callers must not mutate it.
func (m *Model) Params() []*tensor.Matrix { return m.paramsCache }

// Grads returns all gradients aligned with Params. The returned slice is
// shared; callers must not mutate it.
func (m *Model) Grads() []*tensor.Matrix { return m.gradsCache }

// GradSlab returns the storage of every gradient matrix, in Grads order and
// element order within each: one slice a collective can sum in place, so
// writing it writes the gradients.
func (m *Model) GradSlab() []float32 { return m.gradSlab }

// CopyWeightsFrom copies parameters from src (same architecture).
func (m *Model) CopyWeightsFrom(src *Model) {
	sp := src.Params()
	dp := m.Params()
	if len(sp) != len(dp) {
		panic(fmt.Sprintf("core: weight copy across different models: %d vs %d params", len(sp), len(dp)))
	}
	for i := range dp {
		dp[i].CopyFrom(sp[i])
	}
}

// ParamVector flattens all parameters into one float32 slice (a copy),
// useful for comparing replicas in tests and tools.
func (m *Model) ParamVector() []float32 {
	var out []float32
	for _, p := range m.Params() {
		out = append(out, p.Data...)
	}
	return out
}

// MaxParamDiff returns the largest absolute elementwise difference between
// the parameters of two same-shaped models.
func MaxParamDiff(a, b *Model) float32 {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		panic("core: MaxParamDiff across different architectures")
	}
	var mx float32
	for i := range pa {
		for j := range pa[i].Data {
			d := pa[i].Data[j] - pb[i].Data[j]
			if d < 0 {
				d = -d
			}
			if d > mx {
				mx = d
			}
		}
	}
	return mx
}

// LossInto computes the loss — sigmoid BCE against labelMatrix for a
// multi-label dataset, softmax cross-entropy against labels on the caller's
// sl otherwise — and writes the logit gradient over masked rows into grad
// (overwritten), both rescaled so that summing across partitions yields the
// global mean loss: they are multiplied by (local masked count / denom).
// Pass denom == global masked count; for single-process training use the
// local count itself, or 0. It allocates nothing.
func LossInto(sl *nn.SoftmaxLoss, grad *tensor.Matrix, multiLabel bool, logits *tensor.Matrix, labels []int32, labelMatrix *tensor.Matrix, mask []bool, denom int) float64 {
	local := 0
	for i := 0; i < logits.Rows; i++ {
		if mask[i] {
			local++
		}
	}
	var loss float64
	if multiLabel {
		loss = nn.SigmoidBCEInto(grad, logits, labelMatrix, mask)
	} else {
		loss = sl.Into(grad, logits, labels, mask)
	}
	if denom > 0 && local != denom {
		scale := float64(local) / float64(denom)
		loss *= scale
		grad.Scale(float32(scale))
	}
	return loss
}
