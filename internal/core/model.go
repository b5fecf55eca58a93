package core

import (
	"fmt"

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
	if c.Dropout < 0 || c.Dropout >= 1 {
		return fmt.Errorf("core: dropout %v", c.Dropout)
	}
	return nil
}

// GraphLayer is the uniform layer interface the trainers drive: forward over
// a local node space producing outputs for the first nOut rows, backward
// returning input gradients for all rows — or, for the first layer of a
// stack, whose input is data, the parameter gradients alone.
//
// Besides the one-shot Forward/Backward (what Model.Forward/Backward, the
// single-process trainers' walk of the stack, call), every layer exposes the
// chunked passes the pipelined epoch engine runs so halo exchange can overlap
// with halo-independent compute:
//
//   - ForwardBegin → ForwardPrep/ForwardRows: rows whose aggregation reads no
//     halo slot can run while boundary features are in flight; the remaining
//     rows run on arrival. Any duplicate-free row partition is bit-identical
//     to the one-shot Forward.
//   - BackwardBegin → BackwardHalo → BackwardFinish: halo-row input gradients
//     complete first (so they can be sent), then parameter gradients and the
//     inner rows while the peer gradients are in flight. The staged schedule
//     is bit-identical to the one-shot Backward.
type GraphLayer interface {
	nn.Layer
	Forward(g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32) *tensor.Matrix
	Backward(dOut *tensor.Matrix) *tensor.Matrix
	// BackwardParams is Backward without the input gradient: it accumulates
	// the same parameter-gradient bits and neither computes nor allocates
	// anything sized by the input rows that only the input gradient needs.
	BackwardParams(dOut *tensor.Matrix)

	// SetAgg installs the sparse-aggregation plan (graph.AggIndex: the
	// transposed index plus edge-balanced chunk boundaries) the layer's
	// passes run over. The plan must be built from the same graph the
	// passes receive; trainers rebuild it whenever the epoch graph changes.
	// SAGE requires one and rejects a plan that does not match the graph a
	// pass is handed; attention needs none and ignores it.
	SetAgg(ai *graph.AggIndex)
	// SetHaloLayout places the trailing len(at) input rows of the passes that
	// follow in the dense block of n rows they were selected from (the epoch
	// space's halo rows among the partition's boundary slots), for a layer
	// that reduces over its input rows: attention's dW keeps the summation
	// order of the dense block. SAGE reduces over output rows only and
	// ignores it.
	SetHaloLayout(at []int32, n int)

	// ForwardBegin prepares a chunked pass and returns the output matrix the
	// ForwardRows calls will fill.
	ForwardBegin(g *graph.Graph, h *tensor.Matrix, nOut int, invDeg []float32) *tensor.Matrix
	// ForwardPrep runs per-node precomputations for feature rows [r0, r1)
	// (a no-op for SAGE; Wh and attention scores for GAT).
	ForwardPrep(r0, r1 int)
	// ForwardPrepRows is ForwardPrep for an explicit row list — the epoch
	// drain preps one peer's halo slots as they land.
	ForwardPrepRows(rows []int32)
	// ForwardRows computes the listed output rows; each row of [0, nOut)
	// must be covered exactly once per pass.
	ForwardRows(rows []int32)

	// BackwardBegin computes the pre-activation gradients for dOut and
	// resets the pass accumulators.
	BackwardBegin(dOut *tensor.Matrix)
	// BackwardHalo completes the halo rows [nIn, g.N) of the input gradient:
	// haloSrc lists (ascending) every output row with a neighbor ≥ nIn.
	// Rows < nIn of the returned matrix are valid only after BackwardFinish.
	BackwardHalo(haloSrc []int32, nIn int) *tensor.Matrix
	// BackwardFinish accumulates parameter gradients and completes rows
	// [0, nIn); freeSrc lists (ascending) the output rows not in haloSrc.
	BackwardFinish(freeSrc []int32, nIn int) *tensor.Matrix

	InputDim() int
	OutputDim() int
}

// sageLayer adapts nn.SAGEConv to GraphLayer.
type sageLayer struct{ *nn.SAGEConv }

func (l sageLayer) SetHaloLayout([]int32, int) {}
func (l sageLayer) InputDim() int              { return l.SAGEConv.InDim }
func (l sageLayer) OutputDim() int             { return l.SAGEConv.OutDim }

// gatLayer adapts nn.GATConv to GraphLayer (invDeg is unused by attention).
type gatLayer struct{ *nn.GATConv }

func (l gatLayer) Forward(g *graph.Graph, h *tensor.Matrix, nOut int, _ []float32) *tensor.Matrix {
	return l.GATConv.Forward(g, h, nOut)
}
func (l gatLayer) ForwardBegin(g *graph.Graph, h *tensor.Matrix, nOut int, _ []float32) *tensor.Matrix {
	return l.GATConv.ForwardBegin(g, h, nOut)
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
}

// NewModel builds a model with deterministic initialization from cfg.Seed.
// All replicas built with the same seed hold bit-identical weights.
func NewModel(cfg ModelConfig, inDim, outDim int) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
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

// Layers returns the stack as nn.Layer values for optimizers and grad
// flattening. The returned slice is shared; callers must not mutate it.
func (m *Model) Layers() []nn.Layer { return m.layersCache }

// SetAgg installs one aggregation plan on every layer. All layers of a
// model run over the same local graph, so one plan serves the whole stack;
// the caller keeps ownership and rebuilds it when its graph changes.
func (m *Model) SetAgg(ai *graph.AggIndex) {
	for _, l := range m.LayersL {
		l.SetAgg(ai)
	}
}

// Forward runs the whole stack one-shot — dropout, then the layer, per layer
// — over the local graph g and input x, and returns the last layer's output
// for rows [0, nOut). train enables dropout; invDeg is the mean-aggregation
// normalizer (unused by attention). This and Backward are the only one-shot
// walks of the layer stack: every single-process trainer and evaluator calls
// them, and the partition-parallel engine (pipeline.go) runs the same layers
// stage by stage instead, for training and for evaluation alike.
func (m *Model) Forward(g *graph.Graph, x *tensor.Matrix, nOut int, invDeg []float32, train bool) *tensor.Matrix {
	h := x
	for l, layer := range m.LayersL {
		h = m.Dropouts[l].Forward(h, train)
		h = layer.Forward(g, h, nOut, invDeg)
	}
	return h
}

// Backward propagates d, the gradient of the last Forward's output, down the
// stack, accumulating every layer's parameter gradients. The first layer's
// input is data: it gets no input gradient, and its dropout no backward.
func (m *Model) Backward(d *tensor.Matrix) {
	for l := len(m.LayersL) - 1; l > 0; l-- {
		d = m.LayersL[l].Backward(d)
		d = m.Dropouts[l].Backward(d)
	}
	m.LayersL[0].BackwardParams(d)
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
	if len(a.Params()) != len(b.Params()) {
		panic("core: MaxParamDiff across different architectures")
	}
	return maxMatDiff(a.Params(), b.Params())
}

// maxMatDiff is MaxParamDiff over two aligned, same-shaped matrix lists.
func maxMatDiff(pa, pb []*tensor.Matrix) float32 {
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

// Loss computes the loss — sigmoid BCE against labelMatrix for a multi-label
// dataset, softmax cross-entropy against labels otherwise — and logit
// gradient over masked rows, rescaled so that summing across partitions yields the global mean
// loss: both loss and gradient are multiplied by (local masked count /
// denom). Pass denom == global masked count; for single-process training use
// the local count itself.
func Loss(multiLabel bool, logits *tensor.Matrix, labels []int32, labelMatrix *tensor.Matrix, mask []bool, denom int) (float64, *tensor.Matrix) {
	grad := tensor.New(logits.Rows, logits.Cols)
	loss := LossInto(grad, multiLabel, logits, labels, labelMatrix, mask, denom)
	return loss, grad
}

// LossInto is Loss writing the gradient into a caller-owned matrix
// (overwritten), for allocation-free training loops.
func LossInto(grad *tensor.Matrix, multiLabel bool, logits *tensor.Matrix, labels []int32, labelMatrix *tensor.Matrix, mask []bool, denom int) float64 {
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
		loss = nn.SoftmaxCrossEntropyInto(grad, logits, labels, mask)
	}
	if denom > 0 && local != denom {
		scale := float64(local) / float64(denom)
		loss *= scale
		grad.Scale(float32(scale))
	}
	return loss
}
