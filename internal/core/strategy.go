package core

import (
	"fmt"

	"repro/internal/tensor"
)

// This file is the partition-parallel half of the repo's one sampler
// vocabulary. Every inner row trains every epoch (the paper's Algorithm 1
// samples boundary nodes only), so an epoch's sample is a mask over the NBd
// boundary slots, and both samplers the engine hosts draw it the same way:
// one independent Bernoulli draw per slot. A sampler is therefore data, fixed
// when the rank is built — a keep probability per slot, the order the slots
// draw from the sampling stream, and the receive rescale of a kept slot — and
// the engine evaluates it (slotSampler.draw); it derives everything else —
// which positions to request from each peer, the epoch node space, the row
// split. Boundary-node sampling is one such table and LADIES-style layer-wise
// importance sampling the other; both ride the same pipelined halo overlap,
// fused kernels and checkpoint/resume, so a comparison between them measures
// the samplers, not the plumbing. The single-machine minibatch samplers,
// GraphSAINT among them, live in internal/sampling and feed the same Model
// through MinibatchTrainer.

// Strategy names the boundary sampler a run trains with. The zero value is
// the paper's BNS.
type Strategy int

const (
	// BNS is random boundary-node sampling (Algorithm 1 lines 4–6): every
	// slot is kept with probability ParallelConfig.P, and a kept feature is
	// rescaled by 1/P.
	BNS Strategy = iota
	// LADIES is partition-local LADIES-style layer-wise importance sampling
	// (Zou et al., 2019): the candidate layer is the rank's boundary set, each
	// slot is kept with a static degree-proportional probability scaled to an
	// expected ParallelConfig.Budget slots per epoch, and a kept feature is
	// rescaled by the inverse of its own probability (per-slot
	// Horvitz–Thompson), so the mean aggregation stays unbiased.
	LADIES
)

// String returns the name a trainer checkpoint records; resuming under
// another name is refused.
func (s Strategy) String() string {
	switch s {
	case BNS:
		return "bns"
	case LADIES:
		return "ladies"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// slotSampler is one rank's boundary sampler as data. Each epoch it keeps
// slot s with probability keep[s], drawing one Float32 per slot of drawOrder
// from rng; an empty drawOrder draws nothing and keeps exactly the slots with
// keep[s] >= 1. A non-empty drawOrder holds every slot once. Each rank draws
// from its own stream of the one configured seed, and that stream's position
// is the whole resumable state — the single word a trainer checkpoint stores
// beside the strategy's name.
type slotSampler struct {
	keep      []float32
	drawOrder []int32
	// invP is the uniform receive rescale of a kept slot's features (and, by
	// the chain rule, of the gradients sent back); haloScale, when non-nil,
	// replaces it per slot.
	invP      float32
	haloScale []float32
	rng       *tensor.RNG
}

// newSlotSampler builds rank's sampler for cfg. recv is the rank's receive
// lists at p=1 (per peer, the slots in wire position order; every slot is in
// exactly one), slotDeg the slots' global degrees.
func newSlotSampler(cfg ParallelConfig, rank int, recv [][]int32, slotDeg []int32) slotSampler {
	nbd := len(slotDeg)
	s := slotSampler{invP: 1, rng: tensor.NewRNG(cfg.SampleSeed + uint64(rank)*0x9e3779b9)}
	switch cfg.Strategy {
	case BNS:
		// One Float32 per slot, peers in ascending rank and each receive list
		// in position order, drawn only at 0 < p < 1.
		s.keep = make([]float32, nbd)
		for i := range s.keep {
			s.keep[i] = float32(cfg.P)
		}
		if cfg.P > 0 && cfg.P < 1 {
			s.drawOrder = make([]int32, 0, nbd)
			for _, list := range recv {
				s.drawOrder = append(s.drawOrder, list...)
			}
		}
		if cfg.P > 0 {
			s.invP = 1 / float32(cfg.P)
		}
	case LADIES:
		// One Float32 per slot in slot order, whatever the probabilities.
		s.keep, s.haloScale = inclusionProbs(slotDeg, float64(cfg.Budget))
		s.drawOrder = make([]int32, nbd)
		for i := range s.drawOrder {
			s.drawOrder[i] = int32(i)
		}
	}
	return s
}

// draw fills active (one entry per slot) with this epoch's sample.
func (s *slotSampler) draw(active []bool) {
	if len(s.drawOrder) == 0 {
		for slot, q := range s.keep {
			active[slot] = q >= 1
		}
		return
	}
	for _, slot := range s.drawOrder {
		active[slot] = s.rng.Float32() < s.keep[slot]
	}
}

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
