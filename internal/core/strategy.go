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
// when the rank is built — a keep probability per slot, each slot's index
// among an epoch's draws from the rank's stream, and the receive rescale of a
// kept slot — and a rank's sample is a pure function of (SampleSeed, rank,
// epoch, slot) that the engine evaluates (slotSampler.kept). The owner of a
// slot evaluates the same function for the rank that needs it, so no rank
// tells another what it sampled; the engine derives everything else — which
// rows to send each peer, the epoch node space, the row split.
// Boundary-node sampling is one such table and LADIES-style layer-wise
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

// slotSampler is one rank's boundary sample as a function of the epoch: a
// table over some of that rank's boundary slots — the requester's — and the
// stream the requester draws from. In epoch e, entry i is kept iff the Float32
// at draw e·per + at[i] of the stream seeded with seed is below its keep
// probability — keep[i], or p for every entry of a table with no keep column
// (BNS's uniform rate, held once); a nil at draws nothing and keeps exactly
// the entries whose probability is >= 1. SplitMix64's state is a counter
// (tensor.RNG.Skip), so any draw of any epoch is one multiply-add away, and a
// sample needs no state beyond the epoch count. A rank evaluates its own
// table, whose entries are its slots, to know what it receives; and for each
// peer it serves, that peer's table over the positions of the peer's receive
// list it owns, to know what to send (Algorithm 1 line 6, computed instead of
// broadcast). The stream's position at the start of an epoch is the word a
// trainer checkpoint stores beside the strategy's name.
type slotSampler struct {
	p    float32   // every entry's keep probability when keep is nil
	keep []float32 // entry i's keep probability (LADIES)
	at   []int32   // entry i's index among one epoch's draws
	seed uint64    // the requester's stream: SampleSeed + rank·0x9e3779b9
	per  uint64    // draws per epoch: the requester's NBd, or 0 when at is nil
	// invP is the uniform receive rescale of a kept slot's features (and, by
	// the chain rule, of the gradients sent back); haloScale, when non-nil,
	// replaces it per slot. Only a rank's own table has them.
	invP      float32
	haloScale []float32
}

// newSlotSampler builds rank i's sampler as rank view evaluates it: over
// every slot of i when view is i, else over the positions of
// topo.Recv[i][view] in wire order. BNS draws one Float32 per slot at
// 0 < p < 1, peers in ascending rank and each receive list in position
// order; LADIES one per slot in slot order, whatever the probabilities. A
// peer's table holds only the positions view serves; LADIES' degree-weight
// sum still runs over all of i's slots in slot order, so both sides hold the
// same float32s.
func newSlotSampler(cfg ParallelConfig, topo *Topology, i, view int) slotSampler {
	bd, own := topo.Boundary[i], view == i
	s := slotSampler{p: float32(cfg.P), invP: 1, seed: cfg.SampleSeed + uint64(i)*0x9e3779b9}
	n := len(bd)
	if !own {
		n = len(topo.Recv[i][view])
	}
	if cfg.Strategy == LADIES || cfg.P > 0 && cfg.P < 1 {
		s.at, s.per = make([]int32, n), uint64(len(bd))
	}
	var sum float64
	if cfg.Strategy == LADIES {
		s.keep = make([]float32, n)
		for _, u := range bd {
			sum += float64(topo.G.Degree(u)) + 1
		}
		if own {
			s.haloScale = make([]float32, n)
		}
	} else if cfg.P > 0 && own {
		s.invP = 1 / float32(cfg.P)
	}
	off := 0 // draws before list j's
	for j, list := range topo.Recv[i] {
		if own || j == view {
			for x, slot := range list {
				e := x
				if own {
					e = int(slot)
				}
				if cfg.Strategy == BNS {
					if s.at != nil {
						s.at[e] = int32(off + x)
					}
					continue
				}
				p := inclusionProb(topo.G.Degree(bd[slot]), float64(cfg.Budget), sum)
				s.keep[e], s.at[e] = float32(p), slot
				if own {
					s.haloScale[e] = float32(1 / p)
				}
			}
		}
		off += len(list)
	}
	return s
}

// stream returns the requester's sampling stream where epoch e's draws
// begin.
func (s *slotSampler) stream(e int) tensor.RNG {
	var r tensor.RNG
	r.SetState(s.seed)
	r.Skip(uint64(e) * s.per)
	return r
}

// kept reports whether epoch e's sample keeps entry i.
func (s *slotSampler) kept(e, i int) bool {
	p := s.p
	if s.keep != nil {
		p = s.keep[i]
	}
	if s.at == nil {
		return p >= 1
	}
	r := s.stream(e)
	r.Skip(uint64(s.at[i]))
	return r.Float32() < p
}

// inclusionProb returns the degree-proportional inclusion probability of a
// node of degree d (weight degree+1, capped at 1) among nodes whose weights
// sum to sum, scaled to an expected `expected` kept nodes; its inverse is the
// Horvitz–Thompson rescale of a kept node. expected <= 0 keeps every node.
func inclusionProb(d int, expected, sum float64) float64 {
	if expected > 0 && sum > 0 {
		return min(1, expected*(float64(d)+1)/sum)
	}
	return 1
}
