// Reddit-sim: the paper's headline workload — a dense community graph
// trained with a 4-layer GraphSAGE model across 8 in-process ranks, sweeping
// the boundary sampling rate p to show the throughput/accuracy trade-off
// (Figure 4 + Table 4 in one run). Every number printed is measured on this
// machine: test accuracy, wall time, epochs/s and halo traffic.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/partition"
)

func main() {
	const k = 8
	ds, err := datagen.Generate(datagen.RedditSim(1, 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reddit-sim: %d nodes, %d edges, avg degree %.1f\n",
		ds.G.N, ds.G.NumEdges(), ds.G.AvgDegree())

	parts, err := (&partition.Metis{Seed: 1}).Partition(ds.G, k)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := core.BuildTopology(ds.G, parts, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d partitions, communication volume %d boundary nodes\n\n", k, topo.CommVolume())

	model := core.ModelConfig{
		Arch: core.ArchSAGE, Layers: 4, Hidden: 32,
		Dropout: 0.2, LR: 0.01, Seed: 42,
	}

	for _, p := range []float64{1.0, 0.1, 0.01} {
		trainer, err := core.NewParallelTrainer(ds, topo, core.ParallelConfig{
			Model: model, P: p, SampleSeed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		var commBytes int64
		const epochs = 60
		for epoch := 1; epoch <= epochs; epoch++ {
			st := trainer.TrainEpoch()
			commBytes += st.CommBytes
		}
		elapsed := time.Since(start)

		fmt.Printf("p=%-5.2g  test acc %.4f  wall %6.2fs (%d epochs, %5.1f epochs/s)  comm %6.1f MB\n",
			p, trainer.Evaluate(ds.TestMask), elapsed.Seconds(), epochs,
			epochs/elapsed.Seconds(), float64(commBytes)/1e6)
	}
}
