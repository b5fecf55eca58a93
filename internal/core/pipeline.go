package core

import (
	"fmt"
	"slices"

	"repro/internal/comm"
	"repro/internal/tensor"
)

// This file is the epoch engine: Algorithm 1's loop body from one
// partition's view, executed as a short sequence of named per-layer stages.
//
//	plan          evaluate my sample and my peers' samples of my rows, build
//	              the epoch node space, its graph and the row split
//	per layer, forward:
//	  post          gather + send boundary rows
//	  compute-free  rows whose aggregation reads no sampled boundary slot
//	  drain         receive peers in ascending rank, then the halo-dependent rows
//	loss
//	per layer, backward:
//	  backward-halo   halo rows of the input gradient (what the peers await)
//	  post-grad       send them
//	  backward-finish parameter gradients + inner rows
//	  fold            receive peer gradients in ascending rank, add each in
//	reduce        gradient AllReduce + optimizer step
//
// Evaluation (RankTrainer.Evaluate) is the plan and forward stages and nothing
// after them, over every boundary slot at rate 1 — no sampler evaluated —
// with dropout an identity pass (epochState.eval): each rank's logits are the
// full graph's for its inner rows. Its halo frames hold at most
// evalFrameFloats floats (64 KB on TCP), so the transports' pools never keep
// a frame of a whole p=1 block: a layer's exchange runs in rounds, slice r of
// each peer's rows in round r, and a rank posts slice r+1 only once it holds
// every peer's slice r. The rounds cannot deadlock: every rank posts slice 0
// without waiting, so by induction every slice is posted before anyone waits
// on it, and at most two slices per peer are in flight. An epoch's exchange
// is one round of one frame per peer.
//
// The epoch trains on the sampled subgraph (Section 3.2): its node space is
// the NIn inner rows followed by one row per boundary slot the plan sampled,
// owner-major (LocalPartition.epochGraph): each peer's slots one block of
// rows in wire order, the blocks in ascending rank. Every stage below —
// layer inputs, dropout masks, the layers' activations and input gradients,
// the halo fills and gathers — is sized and swept by that space, NIn + p·NBd
// rows in expectation, and takes each peer's rows as one range. The rename
// maps each row's neighbors in place, so each row's neighbor order, and with
// it every per-row float accumulation order, is what training over the full
// slot range with the unsampled slots' edges dropped would give. Dropout's
// masks and the one reduction ACROSS input rows — attention's dW — read
// where the halo rows stand among all NBd slots (the epoch Layout's halo
// placement) and draw and sum them as they would there, so no bit of an
// epoch depends on the space having been packed, or on its order.
//
// Every layer runs through the Model's stages, the ones the single-process
// trainers run (Model.beginLayer, backwardHalo, backwardFinish), over the
// epoch layout's row split (Layout.Free, Dep): the halo-free rows and the
// halo-dependent remainder. The engine adds only the exchanges between them.
//
// Every halo receive is a plain receive, taken in ascending peer rank. Both
// transports land a payload without its receiver's help, so it arrives while
// compute-free or backward-finish runs, and the receive after them finds it
// waiting unless the peer is late. Nothing an epoch computes depends on when
// a payload landed:
//
//   - the forward fill writes each peer's payload into its own block of halo
//     rows;
//   - a dropout mask element is addressed by its position in a pass over
//     the inner rows and every boundary slot (nn.Dropout), so each peer's
//     rows are drawn and masked as they are received;
//   - a halo-dependent row is computed exactly once, after the last peer;
//   - backward peer gradients, whose += into shared rows is
//     order-sensitive, are added in ascending rank order.
//
// The stages run in the order above, so each exchange is in flight during
// compute-free and backward-finish, and a rank waits only inside the drain
// and the fold, for a payload that has not landed yet. Weights, losses and
// per-rank payload bytes are the same bits on every backend and under any
// delivery order (the cross-backend and skewed comm.WithLinkModel tests pin
// this).
//
// Time is booked by one phase clock per rank (epochState.clk): each stage
// switches it to the phase its work belongs to — sample, compute, exposed
// comm or reduce — so the four tile the epoch. Exposed comm is what a rank
// spends on the exchanges itself: payload gathers, blocked receives, halo
// fills and the fold; the drain books the row compute it runs between
// receives to compute. The raw span Comm adds to it the compute booked while
// an exchange was in flight, from its post to its last receive — what the
// exchanges would cost if nothing hid them (see EpochStats).

// epochState is what one epoch's plan stage decides and the per-layer stages
// share. It lives inside the RankTrainer and is reset per epoch, so the
// stages are plain methods: no closures, no per-epoch allocation.
type epochState struct {
	w   *comm.Worker
	st  RankStats
	clk phaseClock
	// eval marks an inference pass (RankTrainer.Evaluate): the plan is every
	// slot at rate 1 and not the sampler's, dropout is an identity pass, and
	// the pass ends with the last layer's forward.
	eval bool

	// invP / haloScale: the receive rescale of halo features (uniform, or
	// per slot when haloScale is non-nil), and by the chain rule of the halo
	// gradients sent back.
	invP      float32
	haloScale []float32
}

// runEpoch executes one epoch of boundary-sampled partition-parallel
// training for this rank over the worker's transport.
func (rt *RankTrainer) runEpoch(w *comm.Worker) RankStats {
	rt.ep = epochState{w: w}
	layers := rt.Model.LayersL

	rt.planEpoch()

	// --- Forward (lines 8–11), loss (line 12) ---
	d := rt.lossGrad(rt.forward())

	// --- Backward (line 13) ---
	for l := len(layers) - 1; l > 0; l-- {
		dH := rt.backwardHalo(l, d)
		rt.postGrad(l, dH)
		rt.backwardFinish(l)
		d = rt.foldGrad(l, dH)
	}
	rt.backwardInput(d)

	// --- Gradient AllReduce + update (lines 14–15) ---
	rt.reduce()
	rt.ep.clk.read(&rt.ep.st)

	// Everything drawn from the epoch workspace is dead now; recycle it.
	rt.LP.ws.Reset()
	return rt.ep.st
}

// evalFrameFloats bounds an evaluation's halo frame: with TCP's 12-byte header
// it stays in the transports' pre-sized 64 KiB pool class (spareMaxBytes).
const evalFrameFloats = 16000

// forward runs every layer's forward stages (lines 8–11) over the planned
// node space and returns the last layer's output, a row per inner node. It is
// the whole of an evaluation after its plan, and the first half of an epoch.
// Each layer's exchange runs in rounds of n rows per peer, round r+1 posted
// once every peer's round r has landed, which cannot deadlock (see the file
// header). An epoch's n covers every list, one frame per peer; an
// evaluation's holds a frame to 64 KB.
func (rt *RankTrainer) forward() *tensor.Matrix {
	layers := rt.Model.LayersL
	h := rt.LP.Features // inner activations entering the current layer
	for l := range layers {
		n := max(1, rt.LP.eg.N)
		if rt.ep.eval {
			n = max(1, evalFrameFloats/layers[l].InputDim())
		}
		rt.postForward(l, h, 0, n)
		x := rt.LP.ws.Get(rt.LP.eg.N, layers[l].InputDim())
		in := h
		h = rt.forwardFree(l, x, in)
		rt.drainForward(l, x, in, n)
		if rt.ep.eval {
			// No backward will read this layer's input, so the next layer
			// reuses its storage; and once every rank has drained the layer,
			// its halo payloads are back in the transport's pools, where the
			// next layer's draw them again. An evaluation holds one layer's
			// halo at rate 1 and not the stack's. h is the layer's output, in
			// the rank's pass state, not in the workspace.
			rt.ep.w.Barrier()
			rt.LP.ws.Reset()
		}
	}
	return h
}

// planEpoch is the sampling phase (lines 4–7): the rank evaluates its own
// sample and, for each peer it serves, that peer's sample of the rows it
// owns — a sample is a function of (SampleSeed, rank, epoch, slot), so line
// 6's broadcast is computed where it is needed rather than sent — and builds
// everything derivable from them for the layer stages: the epoch node space
// and the layers' layout of it (subgraph, aggregation plan, effective-degree
// normalizer, halo placement, each peer's block of halo rows), the row split,
// the send row lists. An epoch whose sample is exactly the slots the last
// one's was (every epoch at k=1, p=1 or p=0) keeps the products in place
// instead of rebuilding identical ones. It starts the pass's clock.
func (rt *RankTrainer) planEpoch() {
	rt.ep.clk.start()
	ep, lp := &rt.ep, rt.LP
	// The receive rescale (the unbiased 1/p of Section 3.2 for BNS) makes the
	// *mean aggregator's* neighbor sum unbiased. Attention models normalize
	// per-neighborhood via softmax, so the rescale would only distort the
	// attention logits — GAT runs unscaled whatever the sampler, matching the
	// official code. Inference is over the whole graph, unscaled.
	ep.invP = 1
	if !ep.eval && rt.Cfg.Model.Arch == ArchSAGE {
		ep.invP, ep.haloScale = rt.samp.invP, rt.samp.haloScale
	}
	for i := range lp.active {
		lp.active[i] = ep.eval || rt.samp.kept(rt.epoch, i)
	}
	if !lp.planned || !slices.Equal(lp.active, lp.planActive) {
		copy(lp.planActive, lp.active)
		lp.planned = true
		lp.epochGraph()
	}
	ep.st.SampledBd = len(lp.rowSlot)
	lp.lay.InvDeg = rt.epochInvDeg()
	for j, full := range rt.send {
		rows := lp.sendRows[j][:0]
		for x, row := range full {
			if ep.eval || rt.served[j].kept(rt.epoch, x) {
				rows = append(rows, row)
			}
		}
		lp.sendRows[j] = rows
	}
}

// epochInvDeg returns the mean-aggregation normalizer for the epoch graph.
// EstimatorHT keeps the full global degree. The self-normalized estimator
// pairs the receive rescale in the numerator (received features arrive
// pre-scaled) with the matching effective degree: for BNS
// |local| + (1/p)·|sampled remote| — at p=1 exactly the full degree; for p<1
// the estimate is a convex combination of neighbor features, so sampling
// noise cannot blow up activations the way the unnormalized 1/p estimator
// does on low-degree nodes. A sampler with per-slot scales takes the per-edge
// walk; a uniform rescale keeps the historical closed-form expression, whose
// float evaluation order the bit-identity goldens pin.
func (rt *RankTrainer) epochInvDeg() []float32 {
	lp, eg := rt.LP, &rt.LP.eg
	invP, haloScale := rt.ep.invP, rt.ep.haloScale
	if rt.Cfg.Estimator != EstimatorSelfNorm {
		return lp.InvDeg
	}
	invDeg := lp.epochInvDeg
	if haloScale == nil {
		for v := 0; v < lp.NIn; v++ {
			row := eg.Neighbors(int32(v))
			remote := float32(len(row) - int(lp.localNbrs[v]))
			eff := float32(lp.localNbrs[v]) + invP*remote
			if eff > 0 {
				invDeg[v] = 1 / eff
			} else {
				invDeg[v] = 0 // scratch is reused; clear stale entries
			}
		}
		return invDeg
	}
	for v := 0; v < lp.NIn; v++ {
		var eff float32
		for _, u := range eg.Neighbors(int32(v)) {
			if int(u) < lp.NIn {
				eff++
			} else {
				eff += haloScale[lp.rowSlot[int(u)-lp.NIn]]
			}
		}
		if eff > 0 {
			invDeg[v] = 1 / eff
		} else {
			invDeg[v] = 0 // isolated row
		}
	}
	return invDeg
}

// rescaleHalo writes src, the halo rows from epoch row r0 on, dim floats
// each, into dst scaled by each row's receive rescale: the drain's fill of a
// peer's block, and by the chain rule postGrad's gather of the gradient block
// it sends back.
func (rt *RankTrainer) rescaleHalo(dst, src []float32, r0, dim int) {
	hs, s := rt.ep.haloScale, rt.ep.invP
	for x, slot := range rt.LP.rowSlot[r0-rt.LP.NIn:][:len(src)/dim] {
		if hs != nil {
			s = hs[slot]
		}
		d := dst[x*dim : (x+1)*dim]
		for c, v := range src[x*dim : (x+1)*dim] {
			d[c] = v * s
		}
	}
}

// postForward posts slice r of layer l's halo exchange: rows [r·n, (r+1)·n)
// of the boundary rows of h each peer sampled, gathered straight into a
// payload buffer the transport lends (on TCP, the outgoing frame itself) and
// sent in it. A peer whose list ends before the slice gets nothing.
func (rt *RankTrainer) postForward(l int, h *tensor.Matrix, r, n int) {
	rt.ep.clk.post()
	lp, st, w := rt.LP, &rt.ep.st, rt.ep.w
	dim := h.Cols
	for j, rows := range lp.sendRows {
		if r*n >= len(rows) {
			continue
		}
		rows = rows[r*n : min((r+1)*n, len(rows))]
		payload := w.SendBufF32(len(rows) * dim)
		for x, row := range rows {
			copy(payload[x*dim:(x+1)*dim], h.Row(int(row)))
		}
		w.ISendBufF32(j, tagForward+l, payload)
		st.CommBytes += int64(4 * len(payload))
	}
}

// forwardFree begins layer l's pass over its input x, a matrix over the epoch
// node space, and computes the halo-free rows (Model.beginLayer). x comes
// from the epoch workspace with undefined contents: the dropout pass fills
// its inner rows from the inner activations h, the only copy of them made,
// and the drain writes and masks every halo row in place. Placed by the
// layout, each sampled slot draws the masks it has in a pass over the inner
// rows and all NBd slots, so neither the masks nor the checkpointed stream
// position depend on which other slots an epoch sampled. Returns the layer's
// output; its halo-dependent rows are valid after the drain.
func (rt *RankTrainer) forwardFree(l int, x, h *tensor.Matrix) *tensor.Matrix {
	rt.ep.clk.to(phaseCompute)
	return rt.Model.beginLayer(&rt.pass, l, &rt.LP.lay, x, h, !rt.ep.eval)
}

// drainForward receives layer l's boundary feature rows in rounds of n rows
// per peer. Round r receives slice r from every peer in ascending rank and
// fills that slice's rows of the peer's block of x with the sampler's receive
// rescale (the unbiased 1/p of Section 3.2 for BNS); once a peer's block is
// complete its dropout masks are drawn and applied in place and its per-node
// precomputations run. Then the rank posts slice r+1 of its own rows of h.
// After the last round every halo-dependent row is computed in one pass.
// Receives and halo fills are exposed comm, the row passes compute.
func (rt *RankTrainer) drainForward(l int, x, h *tensor.Matrix, n int) {
	lp, ep := rt.LP, &rt.ep
	layer, drop := rt.Model.LayersL[l], rt.Model.Dropouts[l]
	dim := x.Cols
	rounds := 0
	for j, rows := range lp.sendRows {
		rounds = max(rounds, (len(rows)+n-1)/n, (lp.haloPtr[j+1]-lp.haloPtr[j]+n-1)/n)
	}
	for r := range rounds {
		for j := range lp.recv {
			b0, b1 := lp.haloPtr[j], lp.haloPtr[j+1]
			r0, r1 := b0+r*n, min(b0+(r+1)*n, b1)
			if r0 >= r1 {
				continue
			}
			data := rt.recvHalo(j, tagForward, l, (r1-r0)*dim)
			rt.rescaleHalo(x.Data[r0*dim:r1*dim], data, r0, dim)
			ep.w.RecycleF32(data)
			if r1 == b1 {
				ep.clk.to(phaseCompute)
				drop.ApplyMaskedRows(b0, b1)
				layer.ForwardPrep(b0, b1)
			}
		}
		if r+1 < rounds {
			rt.postForward(l, h, r+1, n)
		}
	}
	ep.clk.to(phaseCompute)
	layer.ForwardRows(lp.lay.Dep)
}

// recvHalo receives layer l's next halo payload from peer j on the exchange
// base tag, and stops one of the wrong length where it lands, naming the
// rank, layer and peer.
func (rt *RankTrainer) recvHalo(j, base, l, want int) []float32 {
	rt.ep.clk.receive()
	data := rt.ep.w.RecvF32(j, base+l)
	if len(data) != want {
		panic(fmt.Sprintf("core: rank %d layer %d: got %d floats from %d, want %d",
			rt.Rank, l, len(data), j, want))
	}
	return data
}

// lossGrad computes this rank's loss contribution (line 12) and returns the
// logit gradient the backward stages start from.
func (rt *RankTrainer) lossGrad(logits *tensor.Matrix) *tensor.Matrix {
	rt.ep.clk.to(phaseCompute)
	lp, st := rt.LP, &rt.ep.st
	d := lp.ws.Get(logits.Rows, logits.Cols)
	st.Loss = LossInto(&rt.loss, d, rt.multiLabel, logits, lp.Labels, lp.LabelMatrix, lp.TrainMask, rt.globalTrainCount)
	rt.Model.ZeroGrad()
	return d
}

// backwardHalo starts layer l's backward from the output gradient d and
// completes the halo rows of the input gradient — the only rows the peers
// are waiting for (Model.backwardHalo). Returns the layer's input gradient;
// its inner rows are valid after backwardFinish.
func (rt *RankTrainer) backwardHalo(l int, d *tensor.Matrix) *tensor.Matrix {
	rt.ep.clk.to(phaseCompute)
	return rt.Model.backwardHalo(l, &rt.LP.lay, d)
}

// postGrad posts layer l's gradient exchange: each peer's block of halo rows
// of dH goes back to it, scaled by the chain rule through the receive
// rescale as it is copied into a lent payload buffer.
func (rt *RankTrainer) postGrad(l int, dH *tensor.Matrix) {
	rt.ep.clk.post()
	lp, ep := rt.LP, &rt.ep
	dim := dH.Cols
	for j := range lp.recv {
		r0, r1 := lp.haloPtr[j], lp.haloPtr[j+1]
		if r0 == r1 {
			continue
		}
		payload := ep.w.SendBufF32((r1 - r0) * dim)
		rt.rescaleHalo(payload, dH.Data[r0*dim:r1*dim], r0, dim)
		ep.w.ISendBufF32(j, tagBackward+l, payload)
		ep.st.CommBytes += int64(4 * len(payload))
	}
}

// backwardFinish accumulates layer l's parameter gradients and completes the
// inner rows of its input gradient while the gradient exchange is in flight.
func (rt *RankTrainer) backwardFinish(l int) {
	rt.ep.clk.to(phaseCompute)
	rt.Model.backwardFinish(l, &rt.LP.lay)
}

// foldGrad assembles the next layer down's output gradient in place, in the
// inner rows of layer l's input gradient dH: the halo gradients the peers
// computed for my rows are received in ascending rank and each is added into
// them as it is received. Peer gradients += into shared destination rows, so
// that rank order is the accumulation order bit-identity rests on.
// Returns lp.dNext, a view of dH's first NIn rows: nothing reads dH after
// the fold but the layer below, whose backward differentiates the view in
// place into its pre-activation gradient and reads it until its pass ends,
// and dH is next written by layer l's backward in the next epoch. The whole
// fold is exposed comm.
func (rt *RankTrainer) foldGrad(l int, dH *tensor.Matrix) *tensor.Matrix {
	rt.ep.clk.to(phaseComm)
	lp := rt.LP
	dim := dH.Cols
	for j, rows := range lp.sendRows {
		if len(rows) == 0 {
			continue
		}
		data := rt.recvHalo(j, tagBackward, l, len(rows)*dim)
		for x, row := range rows {
			tensor.AddTo(dH.Row(int(row)), data[x*dim:(x+1)*dim])
		}
		rt.ep.w.RecycleF32(data)
	}
	lp.dNext = tensor.Matrix{Rows: lp.NIn, Cols: dim, Data: dH.Data[:lp.NIn*dim]}
	return &lp.dNext
}

// backwardInput runs the first layer's backward and ends the pass. Input
// features need no gradient: no halo exchange, no dropout backward, no
// input-gradient matrix — only the parameter gradients.
func (rt *RankTrainer) backwardInput(d *tensor.Matrix) {
	rt.ep.clk.to(phaseCompute)
	rt.Model.backwardFirst(d)
}

// reduce sums the weight gradients across ranks and applies the optimizer
// step (lines 14–15).
func (rt *RankTrainer) reduce() {
	rt.ep.clk.to(phaseReduce)
	model, st := rt.Model, &rt.ep.st
	grads := model.GradSlab()
	rt.ep.w.AllReduceSum(grads, tagReduce)
	st.ReduceBytes = int64(4 * len(grads))
	rt.opt.Step(model.Params(), model.Grads())
}
