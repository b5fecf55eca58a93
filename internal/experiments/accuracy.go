package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/sampling"
	"repro/internal/stats"
)

func init() {
	register("table4", "Test score: BNS-GCN (p, m sweeps) vs sampling baselines", runTable4)
	register("table5", "Train time and accuracy vs sampling methods (products-sim, 10 parts)", runTable5)
	register("fig7", "Test-score convergence for p in {1, 0.1, 0.01, 0} (products-sim)", runFig7)
	register("fig9", "Convergence on reddit-sim and yelp-sim (appendix B analogue)", runFig9)
	register("table7", "BNS on top of random partition (accuracy delta vs METIS)", runTable7)
	register("table13", "Test score for p between 0.1 and 1", runTable13)
}

// baselineSampler builds one of the paper's Table 4/5 baselines.
func baselineSampler(name string, ds *datagen.Dataset, o Options) (sampling.Sampler, error) {
	batch := 128
	switch name {
	case "GraphSAGE":
		return sampling.NewNeighborSampler(ds.G, ds.TrainMask, batch, 10, 2, o.Seed+11), nil
	case "FastGCN":
		return sampling.NewFastGCNSampler(ds.G, ds.TrainMask, batch, 256, o.Seed+12), nil
	case "LADIES":
		return sampling.NewLADIESSampler(ds.G, ds.TrainMask, batch, 256, 2, o.Seed+13), nil
	case "ClusterGCN":
		parts, err := partitionFor(ds, 16, "metis", o.Seed+14)
		if err != nil {
			return nil, err
		}
		return sampling.NewClusterGCNSampler(ds.G, ds.TrainMask, parts, 16, 2, o.Seed+14)
	case "GraphSAINT":
		return sampling.NewGraphSAINTSampler(ds.G, ds.TrainMask, sampling.SAINTNode, ds.G.N/8, 4, o.Seed+15), nil
	}
	return nil, fmt.Errorf("experiments: unknown baseline %q", name)
}

var table4Baselines = []string{"FastGCN", "GraphSAGE", "LADIES", "ClusterGCN", "GraphSAINT"}

// runBaseline trains one sampling baseline and returns its final test score
// and wall-clock seconds spent training.
func runBaseline(name string, ds *datagen.Dataset, mc core.ModelConfig, epochs int, o Options) (score, seconds float64, err error) {
	s, err := baselineSampler(name, ds, o)
	if err != nil {
		return 0, 0, err
	}
	tr, err := sampling.NewMinibatchTrainer(ds, mc, s)
	if err != nil {
		return 0, 0, err
	}
	for e := 0; e < epochs; e++ {
		tr.TrainEpoch()
	}
	return tr.Evaluate(ds.TestMask), (tr.SampleTime + tr.ComputeTime).Seconds(), nil
}

// runTable4 reproduces Table 4: BNS-GCN across sampling rates and partition
// counts against the sampling baselines. Scores are mean over o.Runs seeds.
func runTable4(w io.Writer, o Options) error {
	o = o.withDefaults()
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "dataset\tmethod\tm\ttest score\n")
	for _, spec := range allSpecs() {
		ds, err := dataset(spec, o)
		if err != nil {
			return err
		}
		epochs := o.epochs(spec.epochs)
		// Baselines: minibatch epochs cost several full-graph epochs; halve.
		bEpochs := epochs / 2
		if bEpochs < 1 {
			bEpochs = 1
		}
		for _, b := range table4Baselines {
			score, _, err := runBaseline(b, ds, spec.model, bEpochs, o)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\t-\t%s\n", ds.Name, b, pct(score))
		}
		for _, p := range []float64{1.0, 0.1, 0.01, 0.0} {
			for _, k := range []int{spec.parts[0], spec.parts[len(spec.parts)-1]} {
				topo, err := topology(ds, k, "metis", o.Seed)
				if err != nil {
					return err
				}
				var agg stats.MeanStd
				for r := 0; r < o.Runs; r++ {
					res, err := trainBNS(ds, topo, spec.model, p, epochs, 0, o.Seed+uint64(r)*101, core.BNS)
					if err != nil {
						return err
					}
					agg.Add(res.TestScore)
				}
				fmt.Fprintf(tw, "%s\tBNS-GCN (p=%.2g)\t%d\t%s ±%.2f\n",
					ds.Name, p, k, pct(agg.Mean()), 100*agg.Std())
			}
		}
		tw.Flush()
	}
	return nil
}

// runTable5 reproduces Table 5: total train time and accuracy against
// ClusterGCN / NeighborSampling / GraphSAINT on products-sim at 10 parts.
func runTable5(w io.Writer, o Options) error {
	o = o.withDefaults()
	spec := productsSpec()
	ds, err := dataset(spec, o)
	if err != nil {
		return err
	}
	epochs := o.epochs(spec.epochs)
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "method\ttotal train time (s)\ttest score\n")
	for _, b := range []string{"ClusterGCN", "GraphSAGE", "GraphSAINT"} {
		score, secs, err := runBaseline(b, ds, spec.model, epochs/2, o)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%s\n", b, secs, pct(score))
	}
	topo, err := topology(ds, 10, "metis", o.Seed)
	if err != nil {
		return err
	}
	for _, p := range []float64{1.0, 0.1, 0.01} {
		res, err := trainBNS(ds, topo, spec.model, p, epochs, 0, o.Seed, core.BNS)
		if err != nil {
			return err
		}
		total := res.AvgStats.TotalTime().Seconds() * float64(epochs)
		fmt.Fprintf(tw, "BNS-GCN (p=%.2g)\t%.1f\t%s\n", p, total, pct(res.TestScore))
	}
	return tw.Flush()
}

// printCurves renders per-p convergence series as rows of (epoch, score).
func printCurves(w io.Writer, title string, curves map[float64]*bnsResult, order []float64) {
	fmt.Fprintln(w, title)
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "epoch")
	for _, p := range order {
		fmt.Fprintf(tw, "\tp=%.2g", p)
	}
	fmt.Fprintln(tw)
	first := curves[order[0]].Curve
	for i, e := range first.Epochs {
		fmt.Fprintf(tw, "%d", e)
		for _, p := range order {
			fmt.Fprintf(tw, "\t%s", pct(curves[p].Curve.Values[i]))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// runFig7 reproduces Figure 7: convergence of test score on products-sim for
// each partition count; p=0.1/0.01 converge at least as well as p=1, while
// p=0 saturates lowest.
func runFig7(w io.Writer, o Options) error {
	o = o.withDefaults()
	spec := productsSpec()
	ds, err := dataset(spec, o)
	if err != nil {
		return err
	}
	epochs := o.epochs(spec.epochs)
	every := epochs / 10
	if every < 1 {
		every = 1
	}
	order := []float64{1.0, 0.1, 0.01, 0.0}
	for _, k := range []int{spec.parts[0], spec.parts[len(spec.parts)-1]} {
		topo, err := topology(ds, k, "metis", o.Seed)
		if err != nil {
			return err
		}
		curves := map[float64]*bnsResult{}
		for _, p := range order {
			res, err := trainBNS(ds, topo, spec.model, p, epochs, every, o.Seed, core.BNS)
			if err != nil {
				return err
			}
			curves[p] = res
		}
		printCurves(w, fmt.Sprintf("-- %s, %d partitions --", ds.Name, k), curves, order)
	}
	return nil
}

// runFig9 extends the convergence study to reddit-sim and yelp-sim
// (the paper's Appendix B).
func runFig9(w io.Writer, o Options) error {
	o = o.withDefaults()
	order := []float64{1.0, 0.1, 0.01, 0.0}
	for _, spec := range []dataSpec{redditSpec(), yelpSpec()} {
		ds, err := dataset(spec, o)
		if err != nil {
			return err
		}
		epochs := o.epochs(spec.epochs)
		every := epochs / 10
		if every < 1 {
			every = 1
		}
		k := spec.parts[len(spec.parts)-1]
		topo, err := topology(ds, k, "metis", o.Seed)
		if err != nil {
			return err
		}
		curves := map[float64]*bnsResult{}
		for _, p := range order {
			res, err := trainBNS(ds, topo, spec.model, p, epochs, every, o.Seed, core.BNS)
			if err != nil {
				return err
			}
			curves[p] = res
		}
		printCurves(w, fmt.Sprintf("-- %s, %d partitions --", ds.Name, k), curves, order)
	}
	return nil
}

// runTable7 reproduces Table 7: BNS on random partitions. p=0.1 stays close
// to METIS, while p=0 collapses (random partitions isolate nodes from almost
// all neighbors).
func runTable7(w io.Writer, o Options) error {
	o = o.withDefaults()
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "dataset\tm\tp\trandom+BNS\tmetis+BNS\tdelta\n")
	for _, spec := range allSpecs() {
		ds, err := dataset(spec, o)
		if err != nil {
			return err
		}
		epochs := o.epochs(spec.epochs)
		k := spec.parts[len(spec.parts)-1]
		// p=1 is omitted: without sampling the two partitioners see the same
		// full graph, so the paper's Table 7 reports an exact +0.00 there.
		for _, p := range []float64{0.1, 0.0} {
			var scores [2]float64
			for mi, method := range []string{"random", "metis"} {
				topo, err := topology(ds, k, method, o.Seed)
				if err != nil {
					return err
				}
				res, err := trainBNS(ds, topo, spec.model, p, epochs, 0, o.Seed, core.BNS)
				if err != nil {
					return err
				}
				scores[mi] = res.TestScore
			}
			fmt.Fprintf(tw, "%s\t%d\t%.2g\t%s\t%s\t%+.2f\n",
				ds.Name, k, p, pct(scores[0]), pct(scores[1]), 100*(scores[0]-scores[1]))
		}
		tw.Flush()
	}
	return nil
}

// runTable13 reproduces Table 13 (Appendix E): the choice of p — scores for
// p between 0.1 and 1 are statistically indistinguishable, so small p wins
// on efficiency.
func runTable13(w io.Writer, o Options) error {
	o = o.withDefaults()
	configs := []struct {
		spec dataSpec
		k    int
	}{
		{redditSpec(), 2},
		{productsSpec(), 5},
	}
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "dataset\tm\tp=0.1\tp=0.3\tp=0.5\tp=0.8\tp=1.0\n")
	for _, c := range configs {
		ds, err := dataset(c.spec, o)
		if err != nil {
			return err
		}
		epochs := o.epochs(c.spec.epochs)
		topo, err := topology(ds, c.k, "metis", o.Seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d", ds.Name, c.k)
		for _, p := range []float64{0.1, 0.3, 0.5, 0.8, 1.0} {
			res, err := trainBNS(ds, topo, c.spec.model, p, epochs, 0, o.Seed, core.BNS)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "\t%s", pct(res.TestScore))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
