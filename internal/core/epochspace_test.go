package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sampling"
)

// TestEpochSpaceInvariants trains a few epochs at every sampling rate, under
// every hosted strategy, both architectures and both schedules, and checks
// the epoch node space after each epoch (core.CheckEpochSpace): inner rows
// plus exactly the sampled boundary slots, receive lists tiling the halo
// rows, the row split partitioning the inner rows, and the epoch graph equal
// edge for edge to the full-space graph it replaces. LADIES covers per-slot
// receive scales, GraphSAINT dropped and promoted inner rows; p=0 and p=1
// are the empty and the identity slot map, where the plan is also kept from
// one epoch to the next.
func TestEpochSpaceInvariants(t *testing.T) {
	ds := core.NewTestDataset(t, 8)
	topo := core.NewTestTopology(t, ds, 3)
	maxBd := 0
	for _, b := range topo.Boundary {
		maxBd = max(maxBd, len(b))
	}
	for _, p := range []float64{0, 0.1, 0.5, 1} {
		// LADIES takes a budget of kept slots (0 keeps all, so p=0 asks for
		// one), GraphSAINT a kept fraction of inner rows (0 and 1 keep all).
		budget := int(p * float64(maxBd))
		if p == 0 {
			budget = 1
		}
		strategies := map[string]core.StrategyFactory{
			"bns":    nil,
			"ladies": sampling.NewLADIESFactory(budget, 5),
			"saint":  sampling.NewSAINTFactory(p, 5),
		}
		for name, factory := range strategies {
			for _, arch := range []core.Arch{core.ArchSAGE, core.ArchGAT} {
				for _, sched := range []core.Schedule{core.ScheduleOverlap, core.ScheduleSerialized} {
					t.Run(fmt.Sprintf("p=%v/%s/%s/%s", p, name, arch, sched), func(t *testing.T) {
						mc := core.ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
						tr, err := core.NewParallelTrainer(ds, topo, core.ParallelConfig{
							Model: mc, P: p, SampleSeed: 2, Schedule: sched, Strategy: factory,
						})
						if err != nil {
							t.Fatal(err)
						}
						for e := 0; e < 3; e++ {
							tr.TrainEpoch()
							core.CheckEpochSpace(t, tr)
						}
					})
				}
			}
		}
	}
}
