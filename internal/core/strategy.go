package core

import "repro/internal/tensor"

// This file is the partition-parallel half of the repo's one sampler
// vocabulary: a Strategy decides which boundary slots an epoch samples and
// how received halo features are rescaled, and the engine derives everything
// else — which positions to request from each peer, the epoch node space, the
// row split. Every inner row trains every epoch (the paper's Algorithm 1
// samples boundary nodes only), so a plan is a mask over the NBd boundary
// slots. Boundary-node sampling is one such policy and LADIES-style
// layer-wise importance sampling the other; both ride the same pipelined
// halo overlap, fused kernels and checkpoint/resume, so a comparison between
// them measures the samplers, not the plumbing. The single-machine minibatch
// samplers, GraphSAINT among them, live in internal/sampling and feed the
// same Model through MinibatchTrainer.

// PartitionView is the static, read-only description of one rank's
// partition that a Strategy samples against. All slices alias trainer
// state and must not be mutated.
type PartitionView struct {
	NBd int // boundary slots [0, NBd)

	// RecvLists[j] lists, per peer j, the boundary slots this rank would
	// receive from j at p=1, in the canonical position order the wire
	// protocol aligns on; this rank's own entry is nil. Every slot is in
	// exactly one list.
	RecvLists [][]int32
	// SlotDeg holds the slots' global degrees — the importance weights
	// degree-proportional strategies sample with.
	SlotDeg []int32
}

// Plan is one epoch's sampling decision. The engine allocates it once per
// trainer and hands it to the Strategy to fill; every slice keeps its
// capacity across epochs so a steady-state epoch plans without allocating.
type Plan struct {
	// Active[s] marks the boundary slots (length NBd) sampled this epoch.
	// Edges into unsampled slots are dropped, and the engine requests from
	// each peer exactly the active slots of that peer's receive list.
	Active []bool
	// InvP is the uniform Horvitz–Thompson rescale applied to every
	// received boundary feature (and the matching backward payloads).
	// BNS sets 1/p; strategies without a uniform inclusion probability set
	// 1 and use HaloScale. The engine gates it to 1 for architectures that
	// normalize per-neighborhood (GAT).
	InvP float32
	// HaloScale, when non-nil, gives a per-boundary-slot receive rescale
	// (length NBd, indexed by slot) that replaces InvP — how an importance
	// sampler expresses per-node inclusion probabilities. nil = uniform.
	HaloScale []float32
}

// Strategy produces each epoch's boundary sample and receive rescale for one
// rank. Implementations must be deterministic functions of their seed and
// call sequence: every rank runs its own instance, and bit-identical
// replicas across transports and arrival orders rely on PlanEpoch consuming its
// RNG identically regardless of timing. State/SetState expose the RNG
// position for trainer checkpoints, so resumed runs replan identically.
type Strategy interface {
	// Name identifies the strategy in checkpoints; resuming under a
	// different name is rejected.
	Name() string
	// Bind attaches the strategy to one rank's partition before training.
	// Called exactly once, before the first PlanEpoch.
	Bind(view *PartitionView)
	// PlanEpoch fills p (whose slices arrive with stale previous-epoch
	// contents, so every slot of Active is written) with this epoch's
	// decision.
	PlanEpoch(p *Plan)
	// State and SetState round-trip the sampling RNG position.
	State() uint64
	SetState(s uint64)
}

// StrategyFactory builds one rank's Strategy instance. ParallelConfig
// carries a factory rather than an instance so every rank — including
// independently bootstrapped processes — constructs its own deterministic,
// rank-seeded stream.
type StrategyFactory func(rank int) Strategy

// stratBase is what every strategy here carries: the sampling stream and the
// partition it samples against. Each rank draws from its own stream of the one
// configured seed, and that stream's position is the whole resumable state —
// the single word a trainer checkpoint stores beside the strategy's name.
type stratBase struct {
	rng  *tensor.RNG
	view *PartitionView
}

func newStratBase(seed uint64, rank int) stratBase {
	return stratBase{rng: tensor.NewRNG(seed + uint64(rank)*0x9e3779b9)}
}

// Bind implements Strategy.
func (b *stratBase) Bind(view *PartitionView) { b.view = view }

// State implements Strategy.
func (b *stratBase) State() uint64 { return b.rng.State() }

// SetState implements Strategy.
func (b *stratBase) SetState(st uint64) { b.rng.SetState(st) }

// inclusionProbs returns degree-proportional inclusion probabilities
// (weight degree+1, each capped at 1) scaled to an expected `expected` kept
// nodes, and their inverses — the Horvitz–Thompson rescale of a kept node.
// expected <= 0 keeps every node.
func inclusionProbs(deg []int32, expected float64) (prob, inv []float32) {
	prob, inv = make([]float32, len(deg)), make([]float32, len(deg))
	var sum float64
	for _, d := range deg {
		sum += float64(d) + 1
	}
	for i, d := range deg {
		p := 1.0
		if expected > 0 && sum > 0 {
			p = min(1, expected*(float64(d)+1)/sum)
		}
		prob[i], inv[i] = float32(p), float32(1/p)
	}
	return prob, inv
}

// bnsStrategy is the default Strategy: the paper's random boundary-node
// sampling, bit-identical to the engine's historically baked-in path — the
// RNG stream (one Float32 per full-list position, peers in ascending rank
// order), the float expressions (1/float32(p) rescale), and the resulting
// Plan reproduce the legacy epoch exactly, which the golden-signature test
// pins.
type bnsStrategy struct {
	stratBase
	p float64
}

// NewBNSStrategy returns the boundary-node sampling strategy at rate p for
// one rank, seeded exactly as the legacy engine seeded its sampling stream.
func NewBNSStrategy(p float64, sampleSeed uint64, rank int) Strategy {
	return &bnsStrategy{stratBase: newStratBase(sampleSeed, rank), p: p}
}

// Name implements Strategy.
func (s *bnsStrategy) Name() string { return "bns" }

// PlanEpoch implements Strategy: Algorithm 1 lines 4–6. Each boundary
// position is kept independently with probability p, drawing one Float32 per
// position with peers visited in ascending rank order — the exact RNG
// consumption order of the legacy engine, which drew nothing at p=1 and p=0.
func (s *bnsStrategy) PlanEpoch(plan *Plan) {
	p32 := float32(s.p)
	for _, full := range s.view.RecvLists {
		for _, slot := range full {
			plan.Active[slot] = s.p >= 1 || (s.p > 0 && s.rng.Float32() < p32)
		}
	}
	plan.InvP = 1
	if s.p > 0 {
		plan.InvP = 1 / float32(s.p)
	}
	plan.HaloScale = nil
}

// ladiesStrategy is partition-local LADIES-style layer-wise importance
// sampling (Zou et al., 2019) hosted on the partition-parallel engine: the
// candidate layer is this rank's boundary set, each slot is kept with a
// static degree-proportional inclusion probability scaled to an expected
// Budget slots per epoch, and kept features arrive rescaled by the inverse
// inclusion probability (per-slot Horvitz–Thompson, Plan.HaloScale) so the
// mean aggregation stays unbiased. Like BNS it samples against this rank's
// own boundary set, and the engine's position exchange reconciles the
// demands exactly as it does for BNS.
type ladiesStrategy struct {
	stratBase
	budget int
	prob   []float32 // per-slot inclusion probability
	scale  []float32 // per-slot 1/prob (the HT receive rescale)
}

// NewLADIESFactory returns a factory for partition-local LADIES-style
// boundary sampling with an expected budget of kept boundary slots per rank
// per epoch. budget <= 0 keeps every slot (inclusion probability 1).
func NewLADIESFactory(budget int, seed uint64) StrategyFactory {
	return func(rank int) Strategy {
		return &ladiesStrategy{stratBase: newStratBase(seed, rank), budget: budget}
	}
}

// Name implements Strategy.
func (s *ladiesStrategy) Name() string { return "ladies" }

// Bind implements Strategy: the inclusion probabilities are a static
// function of the partition's boundary degrees, computed once.
func (s *ladiesStrategy) Bind(view *PartitionView) {
	s.view = view
	s.prob, s.scale = inclusionProbs(view.SlotDeg, float64(s.budget))
}

// PlanEpoch implements Strategy: one draw per boundary slot in ascending
// slot order — a peer-structure-independent RNG stream, so the plan is a
// pure function of (seed, epoch) regardless of schedule or transport.
func (s *ladiesStrategy) PlanEpoch(plan *Plan) {
	for si, p := range s.prob {
		plan.Active[si] = s.rng.Float32() < p
	}
	plan.InvP = 1
	plan.HaloScale = s.scale
}
