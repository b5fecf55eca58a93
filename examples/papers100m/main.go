// Papers100m: the hyper-scale scenario's partition structure (paper Section
// 4.2, Figures 3 and 8). The graph analogue is partitioned 192 ways; we
// report the boundary-node imbalance and the Eq. 4 memory balance under
// sampling. The measured epoch breakdown of training on it (Table 6) is
// `bnsbench -exp table6`.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/stats"
)

func main() {
	ds, err := datagen.Generate(datagen.Papers100MSim(1, 1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("papers100m-sim: %d nodes, %d edges (structure-only analogue of 111M-node ogbn-papers100M)\n",
		ds.G.N, ds.G.NumEdges())

	const k = 192
	parts, err := (&partition.Metis{Seed: 1}).Partition(ds.G, k)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := core.BuildTopology(ds.G, parts, k)
	if err != nil {
		log.Fatal(err)
	}

	// Figure 3: boundary/inner imbalance.
	ratios := topo.BoundaryRatios()
	box := stats.BoxStats(ratios)
	fmt.Printf("\nboundary/inner ratio across %d partitions: median %.2f, straggler %.2f\n",
		k, box.Median, box.Max)

	// Figure 8: memory balance restored by sampling.
	dims := []int{128, 128, 128}
	for _, p := range []float64{1.0, 0.1, 0.01} {
		mems := topo.MemoryCosts(dims, p)
		var mx int64
		for _, m := range mems {
			if m > mx {
				mx = m
			}
		}
		vals := make([]float64, k)
		for i, m := range mems {
			vals[i] = float64(m) / float64(mx)
		}
		b := stats.BoxStats(vals)
		fmt.Printf("p=%-5.2g  normalized memory: q1 %.2f median %.2f q3 %.2f\n",
			p, b.Q1, b.Median, b.Q3)
	}
}
