package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Layer replays: each layer below core is called on its own, through its
// public functions, on the shapes the workload's slowest rank hands it, under
// a span of its own. They say what a layer costs in isolation; the core.*
// metrics say what the epoch spent, and the two together say how much of the
// epoch is that layer.

// timeIt calls fn once untimed, then at least three times and for about
// budget seconds, under one span, and returns the median call in ms.
func timeIt(rec *recorder, parent int32, name string, budget float64, fn func()) float64 {
	fn()
	sp := rec.begin(name, parent, 0)
	var calls []float64
	for start := time.Now(); len(calls) < 3 || time.Since(start).Seconds() < budget; {
		t0 := time.Now()
		fn()
		calls = append(calls, ms(time.Since(t0)))
	}
	rec.end(sp, map[string]float64{"calls": float64(len(calls))})
	return median(calls)
}

// Tags of the comm replays, clear of the training protocol's.
const (
	tagPing = 3000 + iota
	tagPong
	tagXfer
	tagXferAck
	tagReplayReduce
)

// replayComm times the transport the workload trained over — the same
// endpoints, after training — at the workload's own payload sizes: a one-float
// round trip, one halo-sized ISendF32→RecvF32 between ranks 0 and 1, and an
// AllReduceSum of the parameter count over all ranks.
func replayComm(e *trainEnv, rec *recorder, parent int32, budget float64, haloFloats int, m map[string]float64) {
	group := e.tr.Cluster
	params := nn.ParamCount(e.tr.Models[0].Layers())
	// pair runs one exchange between ranks 0 and 1 while the others idle.
	pair := func(rank0, rank1 func(w *comm.Worker)) {
		group.Run(func(w *comm.Worker) {
			switch w.Rank() {
			case 0:
				rank0(w)
			case 1:
				rank1(w)
			}
		})
	}
	one := []float32{1}
	m["comm.pingpong_us"] = 1e3 * timeIt(rec, parent, "comm.pingpong", budget, func() {
		pair(func(w *comm.Worker) {
			w.SendF32(1, tagPing, one)
			w.RecycleF32(w.RecvF32(1, tagPong))
		}, func(w *comm.Worker) {
			w.RecycleF32(w.RecvF32(0, tagPing))
			w.SendF32(0, tagPong, one)
		})
	})

	payload := make([]float32, haloFloats)
	var oneWay []float64
	base := time.Now()
	timeIt(rec, parent, "comm.halo_xfer", budget, func() {
		var sent atomic.Int64 // ns since base; a socket orders nothing for the race detector
		pair(func(w *comm.Worker) {
			sent.Store(int64(time.Since(base)))
			w.ISendF32(1, tagXfer, payload)
			w.RecycleF32(w.RecvF32(1, tagXferAck)) // the payload is the receiver's until it says so
		}, func(w *comm.Worker) {
			data := w.RecvF32(0, tagXfer)
			oneWay = append(oneWay, ms(time.Since(base)-time.Duration(sent.Load())))
			w.RecycleF32(data)
			w.SendF32(0, tagXferAck, one)
		})
	})
	xfer := median(oneWay)
	m["comm.halo_xfer_ms"] = xfer
	m["comm.halo_xfer_gbps"] = float64(4*haloFloats) / (xfer * 1e-3) / 1e9

	grads := make([][]float32, group.Size())
	for r := range grads {
		grads[r] = make([]float32, params)
	}
	m["comm.allreduce_ms"] = timeIt(rec, parent, "comm.allreduce", budget, func() {
		group.Run(func(w *comm.Worker) { w.AllReduceSum(grads[w.Rank()], tagReplayReduce) })
	})
}

// localGraph rebuilds rank r's local node space from the topology's public
// fields, as the engine lays it out: inner nodes first, then the boundary
// nodes it receives; only inner rows have neighbours, kept in global order.
func localGraph(t *core.Topology, r int) (g *graph.Graph, nIn int) {
	inner, boundary := t.Inner[r], t.Boundary[r]
	nIn = len(inner)
	local := func(u int32) int32 {
		if t.Parts[u] == int32(r) {
			return t.InnerIndex(u)
		}
		return int32(nIn + sort.Search(len(boundary), func(i int) bool { return boundary[i] >= u }))
	}
	n := nIn + len(boundary)
	g = &graph.Graph{N: n, Indptr: make([]int64, n+1)}
	for li, v := range inner {
		for _, u := range t.G.Neighbors(v) {
			g.Indices = append(g.Indices, local(u))
		}
		g.Indptr[li+1] = int64(len(g.Indices))
	}
	for li := nIn; li < n; li++ {
		g.Indptr[li+1] = g.Indptr[li]
	}
	return g, nIn
}

// replayLayers times tensor, graph, nn and optim on rank's local graph at the
// first layer's dimensions, where the feature matrix is widest in rows.
func replayLayers(s spec, e *trainEnv, rank int, rec *recorder, parent int32, budget float64, m map[string]float64) error {
	g, nIn := localGraph(e.topo, rank)
	in, out := e.ds.FeatureDim(), s.model.Hidden
	rng := tensor.NewRNG(e.tr.Cfg.Model.Seed)
	random := func(rows, cols int) *tensor.Matrix {
		x := tensor.New(rows, cols)
		tensor.GaussianInit(x, 1, rng)
		return x
	}
	h := random(g.N, in)
	invDeg := nn.InvDegrees(g)
	edges := float64(len(g.Indices))
	timed := func(name string, fn func()) float64 { return timeIt(rec, parent, name, budget, fn) }

	agg := graph.NewAggIndex(g)
	m["graph.aggindex_build_ms"] = timed("graph.aggindex_build", func() { agg.Build(g) })

	z := tensor.New(nIn, in)
	spmm := timed("tensor.spmm", func() { tensor.SpMM(z, h, g.Indptr, g.Indices, invDeg, agg.Chunks) })
	m["tensor.spmm_ms"] = spmm
	// Bytes the gather must touch: one input row per edge, one output row per node.
	m["tensor.spmm_gbps"] = 4 * float64(in) * (edges + float64(nIn)) / (spmm * 1e-3) / 1e9
	dH := tensor.New(g.N, in)
	m["tensor.spmm_trans_ms"] = timed("tensor.spmm_trans", func() {
		dH.Zero()
		tensor.SpMMTrans(dH, z, agg.IncIndptr, agg.IncSrc, invDeg, agg.IncChunks)
	})

	w := random(2*in, out)
	pre := tensor.New(nIn, out)
	m["tensor.spmm_matmul_ms"] = timed("tensor.spmm_matmul", func() {
		tensor.SpMMMatMul(pre, z, h, w, g.Indptr, g.Indices, invDeg, agg.ChunksFor(int64(2*out)))
	})
	concat := random(nIn, 2*in)
	matmul := timed("tensor.matmul", func() { tensor.MatMul(pre, concat, w) })
	m["tensor.matmul_ms"] = matmul
	m["tensor.matmul_gflops"] = 2 * float64(nIn) * float64(2*in) * float64(out) / (matmul * 1e-3) / 1e9
	dPre := random(nIn, out)
	dW := tensor.New(2*in, out)
	m["tensor.matmul_transa_split_ms"] = timed("tensor.matmul_transa_split", func() { tensor.MatMulTransASplit(dW, z, h, dPre) })
	dz := tensor.New(nIn, in)
	m["tensor.matmul_transb_split_ms"] = timed("tensor.matmul_transb_split", func() { tensor.MatMulTransBSplit(dz, dH, dPre, w) })

	switch s.model.Arch {
	case core.ArchSAGE:
		l := nn.NewSAGEConv(in, out, nn.ReLUAct, rng)
		l.SetAgg(agg)
		m["nn.sage_fwd_ms"] = timed("nn.sage_fwd", func() { l.Forward(g, h, nIn, invDeg) })
		m["nn.sage_bwd_ms"] = timed("nn.sage_bwd", func() { l.Backward(dPre) })
	case core.ArchGAT:
		l := nn.NewGATConv(in, out, nn.ReLUAct, rng)
		l.SetAgg(agg)
		m["nn.gat_fwd_ms"] = timed("nn.gat_fwd", func() { l.Forward(g, h, nIn) })
		m["nn.gat_bwd_ms"] = timed("nn.gat_bwd", func() { l.Backward(dPre) })
	}

	model, err := core.NewModel(e.tr.Cfg.Model, in, e.ds.NumClasses)
	if err != nil {
		return err
	}
	for _, grad := range model.Grads() {
		tensor.GaussianInit(grad, 0.01, rng)
	}
	adam := optim.NewAdam(s.model.LR)
	m["optim.adam_step_us"] = 1e3 * timed("optim.adam_step", func() { adam.Step(model.Params(), model.Grads()) })
	return nil
}

// predictEpoch puts the cost model's projection beside the measurement: the
// same topology and model shape, priced with the rates the replays above
// measured on this box instead of a GPU profile.
func predictEpoch(s spec, e *trainEnv, epochMS float64, m map[string]float64) {
	model := e.tr.Models[0]
	var outs []int
	for _, l := range model.LayersL {
		outs = append(outs, l.OutputDim())
	}
	w := costmodel.FromTopology(e.topo, model.LayerInputDims(), outs, nn.ParamCount(model.Layers()))
	link := m["comm.halo_xfer_gbps"] * 1e9
	pred := costmodel.EstimateBNS(w, s.p, costmodel.Profile{
		Name:          "measured",
		GPUFlops:      m["tensor.matmul_gflops"] * 1e9,
		LinkBandwidth: link,
		LinkLatency:   m["comm.pingpong_us"] / 2 * 1e-6,
		SwapBandwidth: link,
	}).Total() * 1e3
	m["costmodel.epoch_ms_pred"] = pred
	m["costmodel.pred_err_frac"] = math.Abs(pred-epochMS) / epochMS
}
