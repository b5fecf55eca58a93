package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Message tags for the per-epoch protocol. Each (src, tag) stream is FIFO and
// the protocol is fully ordered, so constant per-phase tags suffice.
const (
	tagEval     = 2   // evaluation's score counts (RankTrainer.Evaluate)
	tagForward  = 10  // + layer index: feature rows (line 9)
	tagBackward = 200 // + layer index: feature gradient rows (line 13)
	tagReduce   = 900 // AllReduce of weight gradients (line 14)
)

// LocalPartition holds everything one worker owns: its inner slice of the
// dataset, the static local adjacency over the inner + boundary-slot space,
// and the per-epoch node space and scratch the engine trains on.
//
// Two node spaces meet here. The static one — what the partition is — has
// NIn inner rows and NBd boundary slots, slot s sitting at id NIn+s; the
// rank's sampler samples the slots, and every inner row trains. The epoch one —
// what the layers, the dropout buffers and every per-epoch list below see —
// keeps the inner rows at [0, NIn) and gives only the slots sampled this
// epoch a row, numbered from NIn owner-major, so the rows a peer fills are
// one block (slotRow/rowSlot translate). The rename maps each row's
// neighbors in place, so its neighbor order is the static one with the
// unsampled slots struck out.
type LocalPartition struct {
	ID  int
	NIn int // inner nodes (static and epoch ids [0, NIn))
	NBd int // boundary slots (static ids [NIn, NIn+NBd)); an epoch samples some

	GlobalInner    []int32
	GlobalBoundary []int32

	// Full local adjacency in static ids, the p=1 graph: only inner rows
	// have neighbors; slots are inputs only.
	fullIndptr  []int64
	fullIndices []int32

	InvDeg      []float32 // per inner node, 1/global degree
	localNbrs   []int32   // per inner node, count of same-partition neighbors
	Features    *tensor.Matrix
	Labels      []int32
	LabelMatrix *tensor.Matrix
	TrainMask   []bool

	// Per-epoch scratch, reused to avoid allocation churn. The fixed-shape
	// buffers are allocated once in NewLocalPartition; the model-dimension-
	// dependent matrices (the layer inputs and the loss gradient) come from
	// ws, an arena that reaches steady state after the first epoch. ws is
	// Reset at the end of every epoch: all buffers drawn from it are dead by
	// then (activations and gradients are not referenced across epochs). Halo
	// payloads are not drawn here: they are gathered into, and read out of,
	// buffers the transport lends.
	epochIndptr  []int64
	epochIndices []int32
	active       []bool      // the boundary slots sampled this epoch
	eg           graph.Graph // epoch subgraph header (epoch ids), rebuilt in place
	lay          Layout      // the layers' layout of eg, its plan rebuilt with it
	ws           *tensor.Workspace
	sendRows     [][]int32 // per peer: inner rows to send (cap: full send list)
	recv         [][]int32 // per peer: the slots it owns, in wire order (Topology.Recv[ID])
	epochInvDeg  []float32 // effective-degree normalizer (EstimatorSelfNorm)

	// The epoch node space (epochGraph): slotRow[s] is the epoch row of
	// boundary slot s, -1 when the epoch did not sample it; rowSlot[r-NIn] is
	// the slot behind epoch halo row r — so the epoch has NIn+len(rowSlot)
	// rows — and peer j's halo rows are [haloPtr[j], haloPtr[j+1]).
	// planActive is the slot set the plan products in place (eg, its plan,
	// the row split) were built from, planned whether it may be trusted: an
	// epoch that plans the same set again keeps them.
	slotRow    []int32
	rowSlot    []int32
	haloPtr    []int
	planActive []bool
	planned    bool

	dNext    tensor.Matrix // the fold's view of a layer's input-gradient inner rows
	evalMask []bool        // Evaluate's scratch: the scored mask over the inner rows
}

// NewLocalPartition extracts partition i's local view from the dataset and
// topology.
func NewLocalPartition(ds *datagen.Dataset, t *Topology, i int) *LocalPartition {
	inner := t.Inner[i]
	boundary := t.Boundary[i]
	lp := &LocalPartition{
		ID:             i,
		NIn:            len(inner),
		NBd:            len(boundary),
		GlobalInner:    inner,
		GlobalBoundary: boundary,
	}
	n := lp.NIn + lp.NBd

	// Local id lookup: inner nodes by owner index, boundary via sorted search.
	haloOf := func(u int32) int32 {
		j := sort.Search(len(boundary), func(x int) bool { return boundary[x] >= u })
		return int32(lp.NIn + j)
	}

	lp.fullIndptr = make([]int64, n+1)
	for li, v := range inner {
		lp.fullIndptr[li+1] = lp.fullIndptr[li] + int64(t.G.Degree(v))
	}
	for li := lp.NIn; li < n; li++ {
		lp.fullIndptr[li+1] = lp.fullIndptr[li]
	}
	lp.fullIndices = make([]int32, lp.fullIndptr[lp.NIn])
	pos := 0
	for _, v := range inner {
		for _, u := range t.G.Neighbors(v) {
			if t.Parts[u] == int32(i) {
				lp.fullIndices[pos] = t.InnerIndex(u)
			} else {
				lp.fullIndices[pos] = haloOf(u)
			}
			pos++
		}
	}

	lp.InvDeg = make([]float32, lp.NIn)
	lp.localNbrs = make([]int32, lp.NIn)
	for li, v := range inner {
		if d := t.G.Degree(v); d > 0 {
			lp.InvDeg[li] = 1 / float32(d)
		}
		for _, u := range t.G.Neighbors(v) {
			if t.Parts[u] == int32(i) {
				lp.localNbrs[li]++
			}
		}
	}

	if ds.Features.Rows > 0 {
		lp.Features = tensor.GatherRows(ds.Features, inner)
	}
	if ds.Labels != nil {
		lp.Labels = make([]int32, lp.NIn)
		for li, v := range inner {
			lp.Labels[li] = ds.Labels[v]
		}
	}
	if ds.LabelMatrix != nil {
		lp.LabelMatrix = tensor.GatherRows(ds.LabelMatrix, inner)
	}
	lp.TrainMask = make([]bool, lp.NIn)
	for li, v := range inner {
		lp.TrainMask[li] = ds.TrainMask[v]
	}

	lp.epochIndptr = make([]int64, n+1)
	lp.epochIndices = make([]int32, len(lp.fullIndices))
	lp.active = make([]bool, lp.NBd)
	lp.ws = tensor.NewWorkspace()
	lp.recv = t.Recv[i]
	lp.sendRows = make([][]int32, t.K)
	for j, rows := range t.Send[i] {
		lp.sendRows[j] = make([]int32, 0, len(rows))
	}
	lp.epochInvDeg = make([]float32, lp.NIn)
	lp.evalMask = make([]bool, lp.NIn)
	lp.slotRow = make([]int32, lp.NBd)
	lp.rowSlot = make([]int32, 0, lp.NBd)
	lp.haloPtr = make([]int, t.K+1)
	lp.planActive = make([]bool, lp.NBd)
	// The epoch layout: every pass computes the inner rows over eg, whose
	// halo rows stand among the NBd slots at rowSlot (HaloAt, set per plan).
	lp.lay.G, lp.lay.NOut, lp.lay.HaloRow = &lp.eg, lp.NIn, lp.slotRow
	lp.lay.Free, lp.lay.Dep = make([]int32, 0, lp.NIn), make([]int32, 0, lp.NIn)
	return lp
}

// epochGraph rebuilds the epoch node space and the local subgraph on the
// inner rows and the plan's sampled slots (Algorithm 1 line 5). The sampled
// boundary slots are given epoch rows NIn, NIn+1, … owner-major — peer j's in
// its receive list's (ascending slot) order, as block j — and edges into
// unsampled slots are dropped; each inner row goes to the layout's Free or
// Dep list as its edges are renamed, by whether one lands on a sampled slot.
// The graph has NIn + (sampled slots) nodes, so
// everything sized from it — layer inputs, dropout buffers, the layers' input
// gradients, the aggregation plan — holds no row for an unsampled slot.
// The layout's aggregation plan (the SpMM engine's transposed index and
// edge-balanced chunks) and halo placement are rebuilt in the same breath, so
// the layers always aggregate over the plan of the graph they are handed. The
// returned graph aliases reusable buffers — valid until the next call; the
// rebuild allocates nothing once capacities have warmed up.
func (lp *LocalPartition) epochGraph() *graph.Graph {
	nIn := int32(lp.NIn)
	rowSlot := lp.rowSlot[:0]
	for j, slots := range lp.recv { // every slot is in exactly one list
		lp.haloPtr[j] = lp.NIn + len(rowSlot)
		for _, s := range slots {
			lp.slotRow[s] = -1
			if lp.active[s] {
				lp.slotRow[s] = nIn + int32(len(rowSlot))
				rowSlot = append(rowSlot, s)
			}
		}
	}
	lp.haloPtr[len(lp.recv)] = lp.NIn + len(rowSlot)
	lp.rowSlot = rowSlot
	n := lp.NIn + len(rowSlot)
	pos := int64(0)
	free, dep := lp.lay.Free[:0], lp.lay.Dep[:0]
	for v := 0; v < lp.NIn; v++ {
		lp.epochIndptr[v] = pos
		halo := false
		for _, u := range lp.fullIndices[lp.fullIndptr[v]:lp.fullIndptr[v+1]] {
			if u >= nIn {
				u = lp.slotRow[u-nIn]
				halo = halo || u >= 0
			}
			if u >= 0 {
				lp.epochIndices[pos] = u
				pos++
			}
		}
		if halo {
			dep = append(dep, int32(v))
		} else {
			free = append(free, int32(v))
		}
	}
	lp.lay.Free, lp.lay.Dep = free, dep
	for v := lp.NIn; v <= n; v++ {
		lp.epochIndptr[v] = pos
	}
	lp.eg = graph.Graph{N: n, Indptr: lp.epochIndptr[:n+1], Indices: lp.epochIndices[:pos]}
	lp.lay.Agg.Build(&lp.eg)
	lp.lay.HaloAt = rowSlot
	return &lp.eg
}

// Estimator selects how sampled neighbor aggregations are normalized.
type Estimator int

const (
	// EstimatorSelfNorm (default) pairs the 1/p feature rescale with the
	// matching effective-degree normalizer |local| + (1/p)·|sampled remote|.
	// The estimate is a convex combination of neighbor features — bounded —
	// and equals the exact mean at p=1. See RankTrainer.epochInvDeg.
	EstimatorSelfNorm Estimator = iota
	// EstimatorHT is the paper's literal form: 1/p rescale normalized by the
	// full global degree (Horvitz–Thompson). Unbiased, but on low-degree
	// graphs a lone sampled neighbor carries weight 1/p and deep stacks
	// amplify the spikes; kept for the ablation study.
	EstimatorHT
)

// ParallelConfig configures BNS-GCN training.
type ParallelConfig struct {
	Model ModelConfig
	// P is the boundary node sampling rate (Algorithm 1): 1 = vanilla
	// partition parallelism, 0 = fully isolated training.
	P float64
	// SampleSeed seeds the per-partition boundary sampling streams.
	SampleSeed uint64
	// Estimator selects the sampled-aggregation normalizer (SAGE only).
	Estimator Estimator
	// Strategy picks the boundary sampler (see strategy.go): BNS, the zero
	// value, at rate P, or LADIES at an expected Budget kept slots per rank
	// per epoch. Each reads only its own parameter, and both draw from
	// SampleSeed. Every rank of a run — including independently bootstrapped
	// processes — must use the same values for replicas to stay consistent.
	Strategy Strategy
	// Budget is LADIES' expected number of boundary slots kept per rank per
	// epoch; 0 keeps every slot.
	Budget int
}

// Validate checks the configuration, the model's included; it needs no dataset.
func (c *ParallelConfig) Validate() error {
	if !(c.P >= 0 && c.P <= 1) {
		return fmt.Errorf("core: sampling rate p=%v outside [0,1]", c.P)
	}
	if c.Strategy != BNS && c.Strategy != LADIES {
		return fmt.Errorf("core: unknown sampling strategy %v (want BNS or LADIES)", c.Strategy)
	}
	if c.Budget < 0 {
		return fmt.Errorf("core: sampling budget %d is negative (0 keeps every boundary slot)", c.Budget)
	}
	return c.Model.Validate()
}

// EpochStats reports one epoch of parallel training. Durations are the
// maximum across workers (the straggler defines epoch time); byte counts are
// totals across workers.
type EpochStats struct {
	Loss        float64
	SampleTime  time.Duration
	ComputeTime time.Duration
	// CommTime is the raw halo-exchange span: ExposedCommTime plus the
	// compute that ran while an exchange was in flight, from its post to its
	// last receive — what the exchanges would cost if nothing hid them. Its
	// hidden part is also in ComputeTime, so the two must not be summed —
	// use ExposedCommTime for critical-path accounting.
	CommTime time.Duration
	// ExposedCommTime is the unoverlapped portion of comm: payload gathers,
	// halo fills, the gradient fold and the time actually spent blocked
	// waiting for boundary data after overlappable compute has run. At most
	// CommTime, and equal to it in an epoch with no exchange in flight — the
	// paper's boundary-communication cost appears here only to the extent it
	// could not be hidden behind inner-node compute.
	ExposedCommTime time.Duration
	ReduceTime      time.Duration
	CommBytes       int64 // boundary feature + gradient traffic
	ReduceBytes     int64 // weight gradient AllReduce traffic
	SampledBd       []int // per partition: boundary nodes kept this epoch
}

// TotalTime returns the epoch wall-clock estimate: the sum of the phases on
// the critical path. Only the exposed (unoverlapped) communication time
// counts — raw CommTime runs concurrently with ComputeTime and would be
// double-counted.
func (s *EpochStats) TotalTime() time.Duration {
	return s.SampleTime + s.ComputeTime + s.ExposedCommTime + s.ReduceTime
}

// RankTrainer owns everything one rank needs to participate in BNS-GCN
// training and evaluation: its local partition, its model replica, optimizer
// and sampler, and the per-epoch protocol. It is the unit of
// distribution — the in-process ParallelTrainer drives k of them on
// goroutines over a channel cluster, while a multi-process deployment runs
// exactly one per OS process over a TCP transport (see cmd/bnsgcn's
// -rank/-world/-rendezvous flags). Construction is deterministic given
// (dataset, topology, config, rank), so independently bootstrapped processes
// hold bit-identical replicas.
//
// A rank holds its row block and nothing global (the distributed-memory
// contract): the partition's local adjacency, the features, labels and train
// mask of its inner rows, the global ids of its inner and boundary nodes, its
// own send and receive lists, the sampler tables of its own slots and of the
// peer slots it serves, and three numbers about the whole — world size, node
// count, train count. The dataset and the topology are read during
// construction and not kept; full-graph scores come from Evaluate.
type RankTrainer struct {
	Cfg   ParallelConfig
	Rank  int
	LP    *LocalPartition
	Model *Model

	opt *optim.Adam
	// samp is this rank's boundary sample, served[j] peer j's over the rows
	// of send[j]; planEpoch evaluates both.
	samp   slotSampler
	served []slotSampler

	send [][]int32 // this rank's Topology.Send[rank], one list per rank of the world

	multiLabel       bool // BCE and micro-F1 against LP.LabelMatrix, not softmax and accuracy
	globalNodes      int  // nodes in the whole graph: the length of an evaluation mask
	globalTrainCount int
	epoch            int
	ep               epochState     // the running pass's shared stage state
	pass             Pass           // the model's pass state, training and evaluation alike
	loss             nn.SoftmaxLoss // the softmax head's slots, reused every epoch

	// dropStart is each layer's dropout stream word at construction, the
	// same on every rank; where a stream stands at an epoch is derived from
	// it (dropoutState).
	dropStart []uint64
}

// NewRankTrainer builds the local state for one rank of a k-way training
// run. Every rank must be constructed with the same dataset, topology, and
// config for the replicas to stay consistent. The trainer copies what it
// needs: nothing reachable from it refers to ds, topo.G or topo.Parts once
// this returns.
func NewRankTrainer(ds *datagen.Dataset, topo *Topology, cfg ParallelConfig, rank int) (*RankTrainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= topo.K {
		return nil, fmt.Errorf("core: rank %d out of [0,%d)", rank, topo.K)
	}
	// The partition is cut out of ds by the topology's global ids.
	if ds.G.N != topo.G.N {
		return nil, fmt.Errorf("core: dataset has %d nodes, topology %d", ds.G.N, topo.G.N)
	}
	if err := ds.CheckTrainLabels(); err != nil {
		return nil, err
	}
	model, err := NewModel(cfg.Model, ds.FeatureDim(), ds.NumClasses)
	if err != nil {
		return nil, err
	}
	rt := &RankTrainer{
		Cfg:         cfg,
		Rank:        rank,
		LP:          NewLocalPartition(ds, topo, rank),
		Model:       model,
		opt:         optim.NewAdam(cfg.Model.LR),
		send:        topo.Send[rank],
		multiLabel:  ds.MultiLabel,
		globalNodes: ds.G.N,
	}
	for _, d := range model.Dropouts {
		rt.dropStart = append(rt.dropStart, d.RNGState())
	}
	rt.samp = newSlotSampler(cfg, topo, rank, rank)
	rt.served = make([]slotSampler, topo.K)
	for j, rows := range rt.send {
		if len(rows) > 0 {
			rt.served[j] = newSlotSampler(cfg, topo, j, rank)
		}
	}
	// The loss normalizer is the global number of training nodes, which is a
	// property of the dataset alone — no cross-rank exchange needed.
	rt.globalTrainCount = datagen.CountMask(ds.TrainMask)
	return rt, nil
}

// Epoch returns the number of completed training epochs.
func (rt *RankTrainer) Epoch() int { return rt.epoch }

// dropoutState returns where layer l's dropout stream stands after epoch
// training epochs. A training pass moves the stream one draw per input
// column over all NIn+NBd rows, sampled slots or not (nn.Dropout.ForwardBegin),
// an evaluation draws none, and a layer whose rate is 0 draws nothing.
func (rt *RankTrainer) dropoutState(l, epoch int) uint64 {
	r := tensor.NewRNG(rt.dropStart[l])
	if rt.Model.Dropouts[l].Rate != 0 {
		m := rt.Model
		in, _ := layerDims(l, m.Config.Layers, m.Config.Hidden, m.InDim, m.OutDim)
		r.Skip(uint64(epoch * (rt.LP.NIn + rt.LP.NBd) * in))
	}
	return r.State()
}

// TrainEpoch runs one epoch of this rank's protocol over the worker's
// transport and reports local statistics. Any panic inside the epoch —
// including the transport failure raised when a peer dies — is converted to
// an error, and the transport is aborted so every surviving rank observes a
// connection error promptly instead of deadlocking on messages that will
// never arrive.
func (rt *RankTrainer) TrainEpoch(w *comm.Worker) (st RankStats, err error) {
	defer rt.failPass(w, "epoch", &err)
	st = rt.runEpoch(w)
	rt.epoch++
	return st, nil
}

// failPass is the deferred recover of the two collectives, TrainEpoch and
// Evaluate: a panic inside the pass becomes *err, the pass ends there, and
// the transport is aborted so the peers fail too.
func (rt *RankTrainer) failPass(w *comm.Worker, what string, err *error) {
	r := recover()
	if r == nil {
		return
	}
	rt.Model.unbind()
	w.Transport().Abort()
	// Wrap error panic values so callers can dispatch on the cause with
	// errors.As — the elastic supervisor keys recovery on finding a
	// *comm.TransportError in this chain.
	if e, ok := r.(error); ok {
		*err = fmt.Errorf("core: rank %d: %s %d failed: %w", rt.Rank, what, rt.epoch, e)
	} else {
		*err = fmt.Errorf("core: rank %d: %s %d failed: %v", rt.Rank, what, rt.epoch, r)
	}
}

// Evaluate scores the model on the given global mask with exact full-graph
// inference (the paper reports full-graph test accuracy). It is a collective:
// every rank calls it with the same mask between the same two epochs and gets
// the same score. Each runs the epoch's own plan and forward stages over the
// plan the engine fills for inference — every slot sampled, nothing rescaled,
// dropout an identity pass — so the logits of its inner rows are, bit for bit,
// the single-process full-graph forward's; it scores those rows and the ranks
// exchange the integer counts behind the metric (sumCounts). No dropout stream
// is drawn from and the sample is a function of the epoch count, which an
// evaluation does not move: a run that evaluates trains exactly as one that
// does not.
//
// The halo rows an evaluation moves are real traffic, every boundary row once
// per layer whatever rate the run trains at, a peer's rows of a layer in
// ⌈rows / n⌉ messages of n = evalFrameFloats / (the layer's input width) rows:
// they show in the transport's counters (comm.Group.BytesSent, MessagesSent)
// and in no RankStats or EpochStats, which account training epochs only. A failure — a dead peer included — comes back
// as an error and aborts the transport, as in TrainEpoch.
func (rt *RankTrainer) Evaluate(w *comm.Worker, mask []bool) (score float64, err error) {
	if len(mask) != rt.globalNodes {
		return 0, fmt.Errorf("core: evaluation mask has %d entries, the graph %d nodes", len(mask), rt.globalNodes)
	}
	defer rt.failPass(w, "evaluation after epoch", &err)
	lp := rt.LP
	logits := rt.infer(w)
	for li, v := range lp.GlobalInner {
		lp.evalMask[li] = mask[v]
	}
	local := scoreCounts(rt.multiLabel, logits, lp.Labels, lp.LabelMatrix, lp.evalMask)
	rt.Model.unbind()
	return scoreOf(rt.multiLabel, sumCounts(w, local)), nil
}

// sumCounts returns, on every rank, the exact sums of all ranks' score
// counts. A count travels to each peer as two float32 words, its low and high
// 32 bits, which are only copied and byte-swapped, never added as floats, so
// a word that reads as a NaN arrives intact.
func sumCounts(w *comm.Worker, local [3]int64) [3]int64 {
	var words [2 * len(local)]float32
	for i, c := range local {
		words[2*i] = math.Float32frombits(uint32(c))
		words[2*i+1] = math.Float32frombits(uint32(uint64(c) >> 32))
	}
	for j := 0; j < w.Size(); j++ {
		if j != w.Rank() {
			w.SendF32(j, tagEval, words[:])
		}
	}
	sum := local
	for j := 0; j < w.Size(); j++ {
		if j == w.Rank() {
			continue
		}
		got := w.RecvF32(j, tagEval)
		if len(got) != len(words) {
			panic(fmt.Sprintf("core: rank %d: got %d count words from %d, want %d", w.Rank(), len(got), j, len(words)))
		}
		for i := range sum {
			sum[i] += int64(uint64(math.Float32bits(got[2*i])) | uint64(math.Float32bits(got[2*i+1]))<<32)
		}
		w.RecycleF32(got)
	}
	return sum
}

// infer is Evaluate's forward pass: the logits of the inner rows, valid until
// this rank's next pass.
func (rt *RankTrainer) infer(w *comm.Worker) *tensor.Matrix {
	rt.ep = epochState{w: w, eval: true}
	rt.planEpoch()
	return rt.forward()
}

// ParallelTrainer trains one model replica per partition with boundary node
// sampling, following Algorithm 1: k RankTrainers driven concurrently over
// a comm.Group, one goroutine per partition playing the role of one GPU.
type ParallelTrainer struct {
	DS      *datagen.Dataset
	Topo    *Topology
	Cfg     ParallelConfig
	Ranks   []*RankTrainer
	Cluster *comm.Group
	Models  []*Model // aliases Ranks[i].Model

	statsBuf []RankStats
}

// NewParallelTrainer builds local partitions, one model replica per worker
// (identically initialized), and an in-process channel cluster.
func NewParallelTrainer(ds *datagen.Dataset, topo *Topology, cfg ParallelConfig) (*ParallelTrainer, error) {
	return NewParallelTrainerOver(ds, topo, cfg, comm.New(topo.K, 0))
}

// NewParallelTrainerOver is the backend-agnostic constructor: it accepts any
// group of k transport endpoints — the channel cluster NewParallelTrainer
// defaults to, or k loopback TCP endpoints as the cross-backend equivalence
// tests use — and drives the identical protocol over it.
func NewParallelTrainerOver(ds *datagen.Dataset, topo *Topology, cfg ParallelConfig, g *comm.Group) (*ParallelTrainer, error) {
	k := topo.K
	if g.Size() != k {
		return nil, fmt.Errorf("core: transport group has %d ranks, topology has %d", g.Size(), k)
	}
	t := &ParallelTrainer{
		DS:      ds,
		Topo:    topo,
		Cfg:     cfg,
		Cluster: g,
	}
	for i := 0; i < k; i++ {
		rt, err := NewRankTrainer(ds, topo, cfg, i)
		if err != nil {
			return nil, err
		}
		t.Ranks = append(t.Ranks, rt)
		t.Models = append(t.Models, rt.Model)
	}
	t.statsBuf = make([]RankStats, k)
	return t, nil
}

// RankStats collects one rank's per-epoch timing and byte counters. Loss is
// the rank's contribution to the global loss (the per-node losses of its
// inner training nodes over the global normalizer), so summing across ranks
// yields the global training loss. Sample, Compute, CommExposed and Reduce
// tile the rank's epoch (they are read off its phase clock); Comm is the raw
// exchange span, CommExposed its unoverlapped portion (see EpochStats).
type RankStats struct {
	Loss                          float64
	Sample, Compute, Comm, Reduce time.Duration
	CommExposed                   time.Duration
	CommBytes, ReduceBytes        int64
	SampledBd                     int
}

// TrainEpoch runs one synchronized BNS-GCN epoch across all partitions and
// returns aggregate statistics. A rank whose epoch fails (protocol bug, NaN
// guard, model error, dead peer) has already aborted the transport, so the
// others fail fast instead of blocking on messages that will never arrive;
// its error is re-raised as a panic through Run.
func (t *ParallelTrainer) TrainEpoch() *EpochStats {
	k := t.Topo.K
	stats := t.statsBuf
	t.Cluster.Run(func(w *comm.Worker) {
		st, err := t.Ranks[w.Rank()].TrainEpoch(w)
		if err != nil {
			panic(err)
		}
		stats[w.Rank()] = st
	})

	agg := &EpochStats{SampledBd: make([]int, k)}
	for i, s := range stats {
		agg.Loss += s.Loss
		agg.CommBytes += s.CommBytes
		agg.ReduceBytes += s.ReduceBytes
		agg.SampledBd[i] = s.SampledBd
		if s.Sample > agg.SampleTime {
			agg.SampleTime = s.Sample
		}
		if s.Compute > agg.ComputeTime {
			agg.ComputeTime = s.Compute
		}
		if s.Comm > agg.CommTime {
			agg.CommTime = s.Comm
		}
		if s.CommExposed > agg.ExposedCommTime {
			agg.ExposedCommTime = s.CommExposed
		}
		if s.Reduce > agg.ReduceTime {
			agg.ReduceTime = s.Reduce
		}
	}
	return agg
}

// Evaluate scores the trained model on the given global mask with exact
// full-graph inference (the paper reports full-graph test accuracy): every
// rank runs RankTrainer.Evaluate, and a failure on any is re-raised as a
// panic, as in TrainEpoch.
func (t *ParallelTrainer) Evaluate(mask []bool) float64 {
	var score float64
	t.Cluster.Run(func(w *comm.Worker) {
		s, err := t.Ranks[w.Rank()].Evaluate(w, mask)
		if err != nil {
			panic(err)
		}
		if w.Rank() == 0 {
			score = s // every rank's is the same number
		}
	})
	return score
}

// Epoch returns the number of completed training epochs.
func (t *ParallelTrainer) Epoch() int { return t.Ranks[0].epoch }
