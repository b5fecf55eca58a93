package experiments

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/datagen"
)

func init() {
	register("fig4", "Measured throughput vs sampling rate across partition counts", runFig4)
	register("fig5", "Epoch time breakdown (compute / communicate / reduce)", runFig5)
	register("fig6", "Memory usage reduction vs p=1", runFig6)
	register("table6", "Epoch time breakdown on papers100M-sim (192 parts)", runTable6)
	register("table8", "Training efficiency of BNS on METIS vs random partitions", runTable8)
}

// measureEpoch builds the engine at sampling rate p, runs one untimed
// warm-up epoch (the first sizes every scratch buffer) and returns the
// epoch stats averaged over o.epochs(3) timed epochs: the slowest rank's
// phase times and the bytes all ranks sent. It first collects what earlier
// measurements left, so their trainers neither sit beside this one in memory
// nor get collected inside its timed epochs.
func measureEpoch(ds *datagen.Dataset, topo *core.Topology, model core.ModelConfig, p float64, o Options) (core.EpochStats, error) {
	runtime.GC()
	model.Seed = o.Seed
	tr, err := core.NewParallelTrainer(ds, topo, core.ParallelConfig{Model: model, P: p, SampleSeed: o.Seed + 1})
	if err != nil {
		return core.EpochStats{}, err
	}
	tr.TrainEpoch()
	var avg core.EpochStats
	n := o.epochs(3)
	for e := 0; e < n; e++ {
		addEpochStats(&avg, tr.TrainEpoch())
	}
	avgEpochStats(&avg, n)
	return avg, nil
}

// runFig4 reproduces Figure 4: measured epochs/s of BNS-GCN at each sampling
// rate across partition counts, and the speedup over p=1 (vanilla partition
// parallelism). The paper's ROC and CAGNET baselines do not exist in this
// runtime, so they have no rows.
func runFig4(w io.Writer, o Options) error {
	o = o.withDefaults()
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "dataset\tm\tp\tepochs/s\tspeedup vs p=1\n")
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
			var full float64
			for _, p := range []float64{1.0, 0.1, 0.01} {
				st, err := measureEpoch(ds, topo, spec.model, p, o)
				if err != nil {
					return err
				}
				secs := st.TotalTime().Seconds()
				if p == 1 {
					full = secs
				}
				fmt.Fprintf(tw, "%s\t%d\t%.2g\t%.2f\t%.2fx\n", ds.Name, k, p, 1/secs, full/secs)
			}
		}
	}
	return tw.Flush()
}

// breakdownHeader and breakdownRow print one measured epoch the way Figure 5
// and Table 6 split it: the slowest rank's phase times, the halo bytes all
// ranks sent, and exposed communication's share of the epoch.
const breakdownHeader = "epoch(s)\tcompute(s)\texposed comm(s)\treduce(s)\tsample(s)\thalo MB\tcomm share"

func breakdownRow(st core.EpochStats) string {
	total := st.TotalTime()
	return fmt.Sprintf("%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.2f\t%s",
		total.Seconds(), st.ComputeTime.Seconds(), st.ExposedCommTime.Seconds(),
		st.ReduceTime.Seconds(), st.SampleTime.Seconds(), float64(st.CommBytes)/1e6,
		pct(float64(st.ExposedCommTime)/float64(total)))
}

// runFig5 reproduces Figure 5: the measured per-epoch time breakdown.
// Communication dominates at p=1 and is cut by sampling.
func runFig5(w io.Writer, o Options) error {
	o = o.withDefaults()
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "dataset\tm\tp\t%s\n", breakdownHeader)
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
			for _, p := range []float64{1.0, 0.1, 0.01} {
				st, err := measureEpoch(ds, topo, spec.model, p, o)
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "%s\t%d\t%.2g\t%s\n", ds.Name, k, p, breakdownRow(st))
			}
		}
	}
	return tw.Flush()
}

// runFig6 reproduces Figure 6: memory reduction against unsampled training,
// per partition count and sampling rate — Eq. 4's projection summed over the
// k partitions, and beside it what this runtime measures on the same
// all-rank basis: the live heap the k rank trainers hold at rate p against
// the same trainers at p=1.
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
			model, err := core.NewModel(spec.model, ds.FeatureDim(), ds.NumClasses)
			if err != nil {
				return err
			}
			full, err := trainerHeap(ds, topo, spec.model, 1, o.Seed)
			if err != nil {
				return err
			}
			eq4 := func(p float64) (sum float64) {
				for _, c := range topo.MemoryCosts(model.LayerInputDims(), p) {
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
				fmt.Fprintf(tw, "\t%s\t%s\t%.2f×", pct(1-eq4(p)/eq4(1)), pct(1-sampled/full), sampled/eq4(p))
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

// runTable6 reproduces Table 6: the measured epoch-time breakdown of the
// hyper-scale run, the paper's 3-layer 128-hidden GraphSAGE trained on the
// papers100M analogue (with features) at 192 partitions.
func runTable6(w io.Writer, o Options) error {
	o = o.withDefaults()
	ds, topo, k, err := papersTopo(o, true)
	if err != nil {
		return err
	}
	mc := core.ModelConfig{Arch: core.ArchSAGE, Layers: 3, Hidden: 128, Dropout: 0.5, LR: 0.01}
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "m\tp\t%s\n", breakdownHeader)
	for _, p := range []float64{1.0, 0.1, 0.01} {
		st, err := measureEpoch(ds, topo, mc, p, o)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%.2g\t%s\n", k, p, breakdownRow(st))
	}
	return tw.Flush()
}

// runTable8 reproduces Table 8: BNS (p=0.1) efficiency gains on top of METIS
// vs random partitions, measured — the epoch-time ratio and the trainers'
// heap ratio against p=1. Random partitions carry more boundary nodes where
// the graph has structure for METIS to find, so they gain more from sampling.
func runTable8(w io.Writer, o Options) error {
	o = o.withDefaults()
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
			var secs, heap [2]float64
			for i, p := range []float64{1, 0.1} {
				st, err := measureEpoch(ds, topo, spec.model, p, o)
				if err != nil {
					return err
				}
				secs[i] = st.TotalTime().Seconds()
				if heap[i], err = trainerHeap(ds, topo, spec.model, p, o.Seed); err != nil {
					return err
				}
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%.1fx\t%.2fx\n",
				ds.Name, k, method, topo.CommVolume(), secs[0]/secs[1], heap[1]/heap[0])
		}
	}
	return tw.Flush()
}
