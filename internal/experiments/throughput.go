package experiments

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/nn"
)

func init() {
	register("fig4", "Throughput vs ROC and CAGNET across partition counts", runFig4)
	register("fig5", "Epoch time breakdown (compute / communicate / reduce)", runFig5)
	register("fig6", "Memory usage reduction vs p=1", runFig6)
	register("table6", "Epoch time breakdown projection for papers100M-sim (192 parts)", runTable6)
	register("table8", "Training efficiency of BNS on METIS vs random partitions", runTable8)
}

// workloadFor derives the cost-model workload for a dataset/topology/model
// combination.
func workloadFor(ds *datagen.Dataset, topo *core.Topology, mc core.ModelConfig) (costmodel.Workload, error) {
	model, err := core.NewModel(mc, ds.FeatureDim(), ds.NumClasses)
	if err != nil {
		return costmodel.Workload{}, err
	}
	layerIn := model.LayerInputDims()
	layerOut := make([]int, len(model.LayersL))
	for i, l := range model.LayersL {
		layerOut[i] = l.OutputDim()
	}
	return costmodel.FromTopology(topo, layerIn, layerOut, nn.ParamCount(model.Layers())), nil
}

// runFig4 reproduces Figure 4: projected epochs/s of BNS-GCN at several
// sampling rates against ROC- and CAGNET-style baselines, across partition
// counts, on the single-machine profile. A real measured column (this Go
// runtime's wall clock) is included as a sanity check of the same ordering.
func runFig4(w io.Writer, o Options) error {
	o = o.withDefaults()
	prof := costmodel.SingleMachineRTX
	measureEpochs := 3
	if o.Quick {
		measureEpochs = 1
	}
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "dataset\tm\tmethod\tprojected epochs/s\tmeasured epochs/s (Go)\n")
	for _, spec := range allSpecs() {
		ds, err := dataset(spec, o)
		if err != nil {
			return err
		}
		for _, k := range spec.parts {
			topo, err := topology(ds, k, "metis", o.Seed)
			if err != nil {
				return err
			}
			wl, err := workloadFor(ds, topo, spec.model)
			if err != nil {
				return err
			}
			for _, p := range []float64{1.0, 0.1, 0.01} {
				res, err := trainBNS(ds, topo, spec.model, p, measureEpochs, 0, o.Seed, nil)
				if err != nil {
					return err
				}
				proj := costmodel.EstimateBNS(wl, p, prof)
				measured := 1.0 / res.AvgStats.TotalTime().Seconds()
				fmt.Fprintf(tw, "%s\t%d\tBNS-GCN (p=%.2g)\t%.2f\t%.2f\n",
					ds.Name, k, p, proj.Throughput(), measured)
			}
			roc := costmodel.EstimateROC(wl, prof)
			fmt.Fprintf(tw, "%s\t%d\tROC\t%.2f\t-\n", ds.Name, k, roc.Throughput())
			for _, c := range []int{1, 2} {
				cg := costmodel.EstimateCAGNET(wl, c, prof)
				fmt.Fprintf(tw, "%s\t%d\tCAGNET (c=%d)\t%.2f\t-\n", ds.Name, k, c, cg.Throughput())
			}
		}
	}
	return tw.Flush()
}

// runFig5 reproduces Figure 5: the per-epoch time breakdown. Communication
// dominates at p=1 and is sharply cut by sampling.
func runFig5(w io.Writer, o Options) error {
	o = o.withDefaults()
	prof := costmodel.SingleMachineRTX
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "dataset\tm\tp\tcompute(s)\tcomm(s)\treduce(s)\tcomm share\n")
	for _, spec := range []dataSpec{redditSpec(), productsSpec()} {
		ds, err := dataset(spec, o)
		if err != nil {
			return err
		}
		for _, k := range spec.parts {
			topo, err := topology(ds, k, "metis", o.Seed)
			if err != nil {
				return err
			}
			wl, err := workloadFor(ds, topo, spec.model)
			if err != nil {
				return err
			}
			for _, p := range []float64{1.0, 0.1, 0.01} {
				b := costmodel.EstimateBNS(wl, p, prof)
				fmt.Fprintf(tw, "%s\t%d\t%.2g\t%.5f\t%.5f\t%.5f\t%s\n",
					ds.Name, k, p, b.Compute, b.Comm, b.Reduce, pct(b.Comm/b.Total()))
			}
		}
	}
	return tw.Flush()
}

// runFig6 reproduces Figure 6: memory reduction against unsampled training,
// per partition count and sampling rate — Eq. 4's projection for the
// straggler partition, and beside it what this runtime measures: the live
// heap the k rank trainers hold at rate p against the same trainers at p=1.
// The two differ both ways, so no overhead constant stands between them: the
// measurement includes what Eq. 4 leaves out and p cannot shrink (features,
// adjacency, weights, optimizer state), which pulls it down, and this runtime
// keeps two boundary-proportional matrices per layer where Eq. 4 counts one
// (see core.MemoryCost), which pushes it up. The third column of each rate
// is the multiple itself: the measured heap over Eq. 4 summed over the
// partitions at that rate (what core's memory gates bound).
func runFig6(w io.Writer, o Options) error {
	o = o.withDefaults()
	rates := []float64{0.5, 0.1, 0.01}
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "dataset\tm\tp=1 heap÷Eq.4")
	for _, p := range rates {
		fmt.Fprintf(tw, "\tp=%.2g Eq.4\tp=%.2g measured\tp=%.2g heap÷Eq.4", p, p, p)
	}
	fmt.Fprintf(tw, "\n")
	for _, spec := range []dataSpec{redditSpec(), productsSpec()} {
		ds, err := dataset(spec, o)
		if err != nil {
			return err
		}
		for _, k := range spec.parts {
			topo, err := topology(ds, k, "metis", o.Seed)
			if err != nil {
				return err
			}
			wl, err := workloadFor(ds, topo, spec.model)
			if err != nil {
				return err
			}
			full, err := trainerHeap(ds, topo, spec.model, 1, o.Seed)
			if err != nil {
				return err
			}
			eq4 := func(p float64) (sum float64) {
				for _, c := range topo.MemoryCosts(wl.LayerIn, p) {
					sum += float64(c)
				}
				return sum
			}
			fmt.Fprintf(tw, "%s\t%d\t%.2f×", ds.Name, k, full/eq4(1))
			for _, p := range rates {
				sampled, err := trainerHeap(ds, topo, spec.model, p, o.Seed)
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "\t%s\t%s\t%.2f×", pct(costmodel.MemoryReduction(wl, p)), pct(1-sampled/full), sampled/eq4(p))
			}
			fmt.Fprintf(tw, "\n")
		}
	}
	return tw.Flush()
}

// trainerHeap builds the k rank trainers at sampling rate p, trains the few
// epochs it takes every scratch buffer to exist and reach its working size,
// and returns the heap they hold: live bytes after a collection, less what
// was live before they were built.
func trainerHeap(ds *datagen.Dataset, topo *core.Topology, model core.ModelConfig, p float64, seed uint64) (float64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	model.Seed = seed
	tr, err := core.NewParallelTrainer(ds, topo, core.ParallelConfig{Model: model, P: p, SampleSeed: seed + 1})
	if err != nil {
		return 0, err
	}
	for e := 0; e < 3; e++ {
		tr.TrainEpoch()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc), nil
}

// runTable6 reproduces Table 6: the epoch-time breakdown of the hyper-scale
// run, projected onto the multi-machine profile with counts scaled from the
// generated analogue up to ogbn-papers100M's 111M nodes.
func runTable6(w io.Writer, o Options) error {
	o = o.withDefaults()
	ds, topo, k, err := papersTopo(o)
	if err != nil {
		return err
	}
	mc := core.ModelConfig{Arch: core.ArchSAGE, Layers: 3, Hidden: 128, Dropout: 0.5, LR: 0.01, Seed: 1}
	wl := costmodel.Workload{
		K: k, TotalNodes: ds.G.N,
		LayerIn:  []int{128, 128, 128},
		LayerOut: []int{128, 128, 172},
		Params:   128*2*128 + 128*2*128 + 128*2*172,
	}
	wl2, err := workloadFor(ds, topo, mc)
	if err != nil {
		return err
	}
	wl.MaxInner, wl.MaxBoundary = wl2.MaxInner, wl2.MaxBoundary
	wl.TotalBoundary, wl.MaxLocalEdges = wl2.TotalBoundary, wl2.MaxLocalEdges

	// Scale counts from the analogue to the real graph's 111M nodes.
	scale := 111_000_000.0 / float64(ds.G.N)
	wl.MaxInner = int(float64(wl.MaxInner) * scale)
	wl.MaxBoundary = int(float64(wl.MaxBoundary) * scale)
	wl.TotalBoundary = int64(float64(wl.TotalBoundary) * scale)
	wl.MaxLocalEdges = int64(float64(wl.MaxLocalEdges) * scale * 14.4) // papers100M is denser (avg deg ~29 vs our analogue)
	wl.TotalNodes = 111_000_000

	prof := costmodel.MultiMachineV100
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "method\ttotal(s)\tcomp(s)\tcomm(s)\treduce(s)\n")
	for _, p := range []float64{1.0, 0.1, 0.01} {
		b := costmodel.EstimateBNS(wl, p, prof)
		fmt.Fprintf(tw, "BNS-GCN (p=%.2g)\t%.1f\t%.1f\t%.1f\t%.1f\n",
			p, b.Total(), b.Compute, b.Comm, b.Reduce)
	}
	return tw.Flush()
}

// runTable8 reproduces Table 8: BNS (p=0.1) efficiency gains on top of METIS
// vs random partitions — random has far more boundary nodes, so it gains
// more from sampling.
func runTable8(w io.Writer, o Options) error {
	o = o.withDefaults()
	prof := costmodel.SingleMachineRTX
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "dataset\tm\tpartitioner\t#boundary\tthroughput gain (p=0.1 vs 1)\tmemory (p=0.1 / p=1)\n")
	for _, spec := range allSpecs() {
		ds, err := dataset(spec, o)
		if err != nil {
			return err
		}
		k := spec.parts[len(spec.parts)-1]
		for _, method := range []string{"metis", "random"} {
			topo, err := topology(ds, k, method, o.Seed)
			if err != nil {
				return err
			}
			wl, err := workloadFor(ds, topo, spec.model)
			if err != nil {
				return err
			}
			full := costmodel.EstimateBNS(wl, 1.0, prof)
			sampled := costmodel.EstimateBNS(wl, 0.1, prof)
			memFull := core.MemoryCost(wl.MaxInner, wl.MaxBoundary, wl.LayerIn)
			memSampled := core.MemoryCost(wl.MaxInner, wl.MaxBoundary/10, wl.LayerIn)
			fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%.1fx\t%.2fx\n",
				ds.Name, k, method, topo.CommVolume(),
				sampled.Throughput()/full.Throughput(),
				float64(memSampled)/float64(memFull))
		}
	}
	return tw.Flush()
}
