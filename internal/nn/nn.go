// Package nn implements the neural-network layers used by the paper's
// models — GraphSAGE convolution with a mean aggregator (Eq. 1–2) and a GAT
// attention layer — plus dropout, activations and the two loss functions
// (softmax cross-entropy for single-label datasets, sigmoid BCE for the
// multi-label Yelp analogue). All backward passes are hand-derived and
// verified against finite differences in the tests.
//
// Layers operate on a local node space: rows [0, nOut) of the input feature
// matrix are the nodes whose outputs are produced (a partition's inner
// nodes), rows [nOut, H.Rows) are halo rows (boundary-node features received
// from other partitions). The adjacency used for aggregation is over this
// local space. In single-process full-graph training nOut == H.Rows.
//
// Each graph layer's pass is staged: ForwardBegin, ForwardPrep over row
// ranges and ForwardRows over row lists; BackwardBegin, BackwardHalo and
// BackwardFinish, or BackwardParams for a layer whose input needs no
// gradient. Every trainer runs these stages (core's Model), the
// partition-parallel engine with its halo exchange between them. The
// one-shot Forward/Backward are the same pieces run over every row at once;
// the layer tests pin every staged schedule against them and against the
// textbook reference. Rows are computed by the same tensor kernel bodies
// whichever call covers them, so every schedule produces the same bits.
// Dropout is staged the same way: its mask element for a position is a
// function of the pass's stream word and that position alone, so its rows
// may be drawn in any chunks and in any order.
package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Activation selects the nonlinearity applied by a layer.
type Activation int

const (
	// NoAct applies no nonlinearity (used before a loss that applies its own).
	NoAct Activation = iota
	// ReLUAct applies max(0, x).
	ReLUAct
)

// activate applies act to one row in place.
func activate(row []float32, a Activation) {
	switch a {
	case NoAct:
	case ReLUAct:
		// On the bits, so the select is a conditional move: a sign-dependent
		// branch mispredicts on every other element. −0 and NaN pass through
		// as before (neither is < 0).
		for j, x := range row {
			b := math.Float32bits(x)
			if x < 0 {
				b = 0
			}
			row[j] = math.Float32frombits(b)
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// activationGrad multiplies dOut in place by act′ of the pre-activation,
// read from out = act(pre): for ReLU out ≤ 0 exactly where pre ≤ 0 (a −0 or
// a NaN comes out as itself, a negative as +0), so the layers keep only
// their activated outputs.
func activationGrad(a Activation, dOut, out *tensor.Matrix) {
	switch a {
	case NoAct:
	case ReLUAct:
		d := dOut.Data[:len(out.Data)]
		for i, v := range out.Data {
			b := math.Float32bits(d[i])
			if v <= 0 {
				b = 0
			}
			d[i] = math.Float32frombits(b)
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", a))
	}
}

// Layer is the common interface of trainable graph layers.
type Layer interface {
	// Params returns the trainable parameter matrices (shared storage).
	Params() []*tensor.Matrix
	// Grads returns the gradient matrices aligned with Params.
	Grads() []*tensor.Matrix
	// ZeroGrad clears all gradients.
	ZeroGrad()
}

// zeroGradAll clears each gradient matrix.
func zeroGradAll(gs []*tensor.Matrix) {
	for _, g := range gs {
		g.Zero()
	}
}

// ParamCount returns the total number of scalar parameters in layers.
func ParamCount(layers []Layer) int {
	n := 0
	for _, l := range layers {
		for _, p := range l.Params() {
			n += len(p.Data)
		}
	}
	return n
}

// Dropout zeroes each element with probability Rate during training and
// scales survivors by 1/(1-Rate) (inverted dropout).
//
// A pass writes where its caller already has a matrix and remembers one bit
// per element. The forward takes a destination and a source (the same matrix
// for an in-place pass): a kept element becomes v·scale, a dropped one a
// literal +0 whatever v was. The backward multiplies a gradient of the
// destination's shape in place: by scale where the element was kept, by 0
// where it was dropped (so a dropped −1 is −0 and a dropped NaN stays NaN).
//
// Both passes run in row chunks so the pipelined epoch engine can drop a
// partition's inner rows while halo rows are still in flight. A mask element
// is addressed by its position, not by the order of the draws: ForwardBegin
// takes the stream's word as the pass's base and moves the stream past the
// whole pass, and element e of row r is the draw base + virt(r)·cols + e,
// where virt places the pass's rows in a virtual pass (every row itself,
// unless a halo placement selects the trailing rows from a larger block).
// The stream is a counter (tensor.RNG.Skip), so any row is drawn where it
// stands: rows may be drawn in any order and in any chunks, and every
// schedule draws exactly the masks a single full pass would.
//
// The per-element work is in tensor's kernels: the mask is drawn by
// tensor.RNG.KeepBits and read by tensor.MaskScale (forward) and
// tensor.MaskMul (backward).
//
// The layer holds its rate and its stream; the pass — the matrices it reads
// and writes, and the mask — is a DropoutPass, the state of whoever runs it
// (see Bind).
type Dropout struct {
	Rate float32
	// Layer is the layer's index in its stack, named in panic messages.
	Layer int
	rng   *tensor.RNG

	// The pass state the layer runs in: the one Bind installed, or own.
	*dropoutPass
	own DropoutPass
}

// DropoutPass is the state of a dropout pass, the pass in progress or the
// last one run: dst (rows×cols) is written, src read (src needs only the rows
// ForwardRows covers); active is false for an identity pass (inference, or
// Rate 0). Row r < h0 stands at virtual row r, row h0+i at virtual row
// h0+at[i]; base is the stream word virtual row 0 is drawn from. bits is the
// keep mask of an active pass, one bit per element of dst in element order,
// packed 64 to a word — a word may straddle rows. The zero value is ready;
// the mask is regrown in place to the largest pass seen.
type DropoutPass struct {
	dst, src   *tensor.Matrix
	rows, cols int
	active     bool
	at         []int32
	h0         int
	base       uint64
	bits       []uint64
}

// The layers embed their bound pass state under these unexported names, so
// a layer method reads a pass field as a field of its own (l.out) and the
// binding stays unexported.
type (
	dropoutPass = DropoutPass
	sagePass    = SAGEPass
	gatPass     = GATPass
)

// NewDropout returns a dropout layer with its own RNG stream.
func NewDropout(rate float32, rng *tensor.RNG) *Dropout {
	if !(rate >= 0 && rate < 1) {
		panic(fmt.Sprintf("nn: dropout rate %v out of [0,1)", rate))
	}
	d := &Dropout{Rate: rate, rng: rng.Split()}
	d.dropoutPass = &d.own
	return d
}

// Bind makes p the state the layer's passes run in, from the next
// ForwardBegin on: every stage of a pass must run in the state its
// ForwardBegin did, and the backward reads the mask there. nil binds the
// state the layer keeps for itself, the one a new layer starts in, so a
// Dropout used on its own needs no Bind. The layer keeps no reference to a
// state it has been unbound from.
func (d *Dropout) Bind(p *DropoutPass) {
	if p == nil {
		p = &d.own
	}
	d.dropoutPass = p
}

// RNGState returns the mask RNG's stream position. A resumed run must
// continue drawing masks exactly where the interrupted one stopped, so
// checkpoints persist this alongside the weights.
func (d *Dropout) RNGState() uint64 { return d.rng.State() }

// SetRNGState repositions the mask RNG stream (checkpoint restore).
func (d *Dropout) SetRNGState(s uint64) { d.rng.SetState(s) }

// ForwardBegin starts a chunked pass that fills dst: rows from src through
// ForwardRows, rows the caller writes into dst itself through ApplyMaskedRows.
// dst and src may be one matrix. A row of dst is valid once its range, or its
// apply, has run.
//
// at and n place the pass's last len(at) rows, in any order, in a dense
// block of n rows: row dst.Rows−len(at)+i takes the masks row at[i] of the
// block would, in a pass over the leading rows and then all n; (nil, 0) is a
// pass over dst's rows as they are. The epoch engine's node space holds only
// the sampled boundary slots, stored peer by peer, and each keeps the masks
// (and the layer's stream the position) that training over every slot would
// give it.
// An active pass moves the stream past that whole virtual pass here.
func (d *Dropout) ForwardBegin(dst, src *tensor.Matrix, train bool, at []int32, n int) {
	if dst.Cols != src.Cols {
		panic(fmt.Sprintf("nn: dropout layer %d: destination has %d columns, source %d", d.Layer, dst.Cols, src.Cols))
	}
	if len(at) > dst.Rows {
		panic(fmt.Sprintf("nn: dropout layer %d: %d halo rows placed, the destination has %d rows", d.Layer, len(at), dst.Rows))
	}
	d.dst, d.src, d.rows, d.cols = dst, src, dst.Rows, dst.Cols
	d.at, d.h0 = at, dst.Rows-len(at)
	d.active = train && d.Rate != 0
	if d.active {
		tensor.EnsureBits(&d.bits, d.rows, d.cols)
		d.base = d.rng.State()
		d.rng.Skip(uint64(d.h0+n) * uint64(d.cols))
	}
}

// ForwardRows draws masks for rows [r0, r1) and writes those rows of the
// destination from the source's. An identity pass copies them (nothing, when
// the pass is in place).
func (d *Dropout) ForwardRows(r0, r1 int) {
	if r0 < 0 || r1 < r0 || r1 > d.rows {
		panic(fmt.Sprintf("nn: dropout layer %d: forward rows [%d,%d) asked, the destination has %d rows", d.Layer, r0, r1, d.rows))
	}
	if r1 > d.src.Rows {
		panic(fmt.Sprintf("nn: dropout layer %d: forward rows [%d,%d) asked, the source has %d rows", d.Layer, r0, r1, d.src.Rows))
	}
	if d.active {
		d.mask(d.src.Data, r0, r1)
	} else if d.dst != d.src {
		lo, hi := r0*d.cols, r1*d.cols
		copy(d.dst.Data[lo:hi], d.src.Data[lo:hi])
	}
}

// ApplyMaskedRows draws the masks of rows [r0, r1) and masks those rows of
// the destination in place: the caller has written their values into it, as
// the epoch engine's drain does with each peer's block. Ranges may come in
// any order, each row exactly once per pass; the result is what ForwardRows
// would write. A no-op when the pass is identity.
func (d *Dropout) ApplyMaskedRows(r0, r1 int) {
	if r0 < 0 || r1 < r0 || r1 > d.rows {
		panic(fmt.Sprintf("nn: dropout layer %d: rows [%d,%d) applied, the destination has %d rows", d.Layer, r0, r1, d.rows))
	}
	if d.active {
		d.mask(d.dst.Data, r0, r1)
	}
}

// mask draws the keep bits of rows [r0, r1) at their virtual positions and
// writes those rows of the destination from src's: v·scale where the bit is
// set, a literal +0 where it is clear. Each run of rows that stand
// consecutively in the virtual pass is one draw.
func (d *Dropout) mask(src []float32, r0, r1 int) {
	for r0 < r1 {
		v, r := r0, min(r1, d.h0) // r0's virtual row, the end of its run
		if r0 >= d.h0 {
			at := d.at[r0-d.h0 : r1-d.h0]
			v, r = d.h0+int(at[0]), r0+1
			for r < r1 && at[r-r0] == at[r-r0-1]+1 {
				r++
			}
		}
		lo, hi := r0*d.cols, r*d.cols
		rng := tensor.NewRNG(d.base)
		rng.Skip(uint64(v) * uint64(d.cols))
		rng.KeepBits(d.bits, lo, hi, 1-d.Rate)
		tensor.MaskScale(d.dst.Data, src, d.bits, lo, hi, 1/(1-d.Rate))
		r0 = r
	}
}

// BackwardRows multiplies rows [r0, r1) of g, the gradient of the last
// forward pass's destination, by that pass's mask in place. Elementwise — no
// RNG — so backward chunks may run in any order; each row must be covered
// exactly once. A no-op when the pass was identity.
func (d *Dropout) BackwardRows(g *tensor.Matrix, r0, r1 int) {
	if !d.active {
		return
	}
	if g.Rows != d.rows || g.Cols != d.cols {
		panic(fmt.Sprintf("nn: dropout layer %d: backward over a %dx%d gradient, the forward pass drew a %dx%d mask",
			d.Layer, g.Rows, g.Cols, d.rows, d.cols))
	}
	tensor.MaskMul(g.Data, d.bits, r0*g.Cols, r1*g.Cols, 1/(1-d.Rate))
}

// SoftmaxCrossEntropy computes mean softmax cross-entropy over the rows of
// logits selected by mask, and the gradient with respect to logits.
// Rows outside the mask contribute zero loss and zero gradient.
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int32, mask []bool) (float64, *tensor.Matrix) {
	grad := tensor.New(logits.Rows, logits.Cols)
	return new(SoftmaxLoss).Into(grad, logits, labels, mask), grad
}

// SoftmaxLoss is softmax cross-entropy's reusable state: a per-row slot and
// the row body, bound once on first use (binding it per call would allocate
// a closure per call). A training loop keeps one and calls Into, which then
// allocates nothing; the zero value is ready. It is not safe for concurrent
// use.
type SoftmaxLoss struct {
	// The call in progress, for body.
	grad, logits *tensor.Matrix
	labels       []int32
	mask         []bool
	inv          float64
	d            []float64 // d[i] = logZ − row[y] for masked row i
	body         func(rows []int32)
}

// Into is SoftmaxCrossEntropy writing the gradient into a caller-owned matrix
// (overwritten). A masked row's label must lie in [0, logits.Cols); one
// outside panics before any row is computed.
//
// Rows run on the tensor row dispatcher: each writes its gradient row and its
// logZ − row[y] into its slot, and the loss is folded from the slots
// afterwards in row order, with the serial loop's expression, so it is the
// same float at every pool width.
func (s *SoftmaxLoss) Into(grad, logits *tensor.Matrix, labels []int32, mask []bool) float64 {
	if len(labels) < logits.Rows || len(mask) < logits.Rows {
		panic(fmt.Sprintf("nn: loss needs %d labels/mask, have %d/%d", logits.Rows, len(labels), len(mask)))
	}
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic(fmt.Sprintf("nn: loss grad shape %dx%d, want %dx%d", grad.Rows, grad.Cols, logits.Rows, logits.Cols))
	}
	count := 0
	for i := 0; i < logits.Rows; i++ {
		if mask[i] {
			if y := labels[i]; y < 0 || int(y) >= logits.Cols {
				panic(fmt.Sprintf("nn: loss row %d has label %d, outside [0,%d)", i, y, logits.Cols))
			}
			count++
		}
	}
	if count == 0 {
		grad.Zero()
		return 0
	}
	inv := 1 / float64(count)
	if s.body == nil {
		s.body = s.block
	}
	s.grad, s.logits, s.labels, s.mask, s.inv = grad, logits, labels, mask, inv
	slots := tensor.EnsureLen(&s.d, logits.Rows)
	tensor.ForRange(0, logits.Rows, s.body)
	s.grad, s.logits, s.labels, s.mask = nil, nil, nil, nil
	var loss float64
	for i, d := range slots {
		if mask[i] {
			loss += d * inv
		}
	}
	return loss
}

// expBlock is the length of the stack buffers the loss and the attention
// softmax stage their exp arguments through, for tensor.ExpInPlace.
const expBlock = 64

// block is the loss's row body: a masked row gets its gradient row and its
// slot, any other row a zero gradient row.
func (s *SoftmaxLoss) block(rows []int32) {
	var buf [expBlock]float64
	for _, r := range rows {
		i := int(r)
		g := s.grad.Row(i)
		if !s.mask[i] {
			clear(g)
			continue
		}
		s.d[i] = softmaxRow(g, s.logits.Row(i), int(s.labels[i]), s.inv, &buf)
	}
}

// softmaxRow writes g = softmax(row)·inv less inv at the label y and returns
// logZ − row[y]. The exps run through buf in blocks, and the sum adds the
// same values in the same order as one math.Exp at a time would.
func softmaxRow(g, row []float32, y int, inv float64, buf *[expBlock]float64) float64 {
	mx := row[0]
	for _, v := range row {
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for j0 := 0; j0 < len(row); j0 += expBlock {
		part := row[j0:min(j0+expBlock, len(row))]
		e := buf[:len(part)]
		for j, v := range part {
			e[j] = float64(v - mx)
		}
		tensor.ExpInPlace(e)
		for _, x := range e {
			sum += x
		}
	}
	logZ := math.Log(sum) + float64(mx)
	for j0 := 0; j0 < len(row); j0 += expBlock {
		part := row[j0:min(j0+expBlock, len(row))]
		e := buf[:len(part)]
		for j, v := range part {
			e[j] = float64(v) - logZ
		}
		tensor.ExpInPlace(e)
		gp := g[j0 : j0+len(e)]
		for j, p := range e {
			gp[j] = float32(p * inv)
		}
	}
	g[y] -= float32(inv)
	return logZ - float64(row[y])
}

// SigmoidBCE computes mean binary cross-entropy with logits over masked rows
// against a 0/1 target matrix, averaged over rows and classes, plus the
// gradient with respect to logits.
func SigmoidBCE(logits, targets *tensor.Matrix, mask []bool) (float64, *tensor.Matrix) {
	grad := tensor.New(logits.Rows, logits.Cols)
	return SigmoidBCEInto(grad, logits, targets, mask), grad
}

// SigmoidBCEInto is SigmoidBCE writing the gradient into a caller-owned
// matrix (overwritten).
func SigmoidBCEInto(grad, logits, targets *tensor.Matrix, mask []bool) float64 {
	if logits.Rows != targets.Rows || logits.Cols != targets.Cols {
		panic(fmt.Sprintf("nn: BCE shape mismatch %dx%d vs %dx%d", logits.Rows, logits.Cols, targets.Rows, targets.Cols))
	}
	if grad.Rows != logits.Rows || grad.Cols != logits.Cols {
		panic(fmt.Sprintf("nn: BCE grad shape %dx%d, want %dx%d", grad.Rows, grad.Cols, logits.Rows, logits.Cols))
	}
	grad.Zero()
	count := 0
	for i := 0; i < logits.Rows; i++ {
		if mask[i] {
			count++
		}
	}
	if count == 0 {
		return 0
	}
	inv := 1 / (float64(count) * float64(logits.Cols))
	var loss float64
	// The two exps of an element, exp(−|x|) and exp(−x), are staged through
	// ea and eb in blocks of a row; the loss adds the same terms in the same
	// order as one math.Exp at a time would.
	var ea, eb [expBlock]float64
	for i := 0; i < logits.Rows; i++ {
		if !mask[i] {
			continue
		}
		lrow, trow, grow := logits.Row(i), targets.Row(i), grad.Row(i)
		for j0 := 0; j0 < len(lrow); j0 += expBlock {
			part := lrow[j0:min(j0+expBlock, len(lrow))]
			a, b := ea[:len(part)], eb[:len(part)]
			for j, x := range part {
				fx := float64(x)
				a[j], b[j] = -math.Abs(fx), -fx
			}
			tensor.ExpInPlace(a)
			tensor.ExpInPlace(b)
			tp, gp := trow[j0:j0+len(part)], grow[j0:j0+len(part)]
			for j, x := range part {
				t := float64(tp[j])
				fx := float64(x)
				// log(1+exp(-|x|)) formulation for stability.
				loss += (math.Max(fx, 0) - fx*t + math.Log1p(a[j])) * inv
				sig := 1 / (1 + b[j])
				gp[j] = float32((sig - t) * inv)
			}
		}
	}
	return loss
}
