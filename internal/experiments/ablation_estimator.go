package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
)

func init() {
	register("ablation1", "Estimator ablation: self-normalized vs raw 1/p (Horvitz-Thompson)", runAblation1)
}

// runAblation1 is an extension beyond the paper: it quantifies why this
// reproduction normalizes sampled aggregations by the effective degree
// (core.EstimatorSelfNorm). On the paper's dense datasets the two estimators
// behave alike; on CPU-sized sparse graphs the raw 1/p form destabilizes
// low-p training while the self-normalized form tracks p=1.
func runAblation1(w io.Writer, o Options) error {
	o = o.withDefaults()
	spec := productsSpec()
	ds, err := dataset(spec, o)
	if err != nil {
		return err
	}
	epochs := o.epochs(spec.epochs)
	topo, err := topology(ds, 5, "metis", o.Seed)
	if err != nil {
		return err
	}
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "p\tself-normalized\traw 1/p (HT)\n")
	for _, p := range []float64{1.0, 0.3, 0.1} {
		var scores [2]float64
		for i, est := range []core.Estimator{core.EstimatorSelfNorm, core.EstimatorHT} {
			mc := spec.model
			mc.Seed = o.Seed
			tr, err := core.NewParallelTrainer(ds, topo, core.ParallelConfig{
				Model: mc, P: p, SampleSeed: o.Seed + 1, Estimator: est,
			})
			if err != nil {
				return err
			}
			for e := 0; e < epochs; e++ {
				tr.TrainEpoch()
			}
			scores[i] = tr.Evaluate(ds.TestMask)
		}
		fmt.Fprintf(tw, "%.2g\t%s\t%s\n", p, pct(scores[0]), pct(scores[1]))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "at p=1 the estimators coincide exactly; the gap at small p is the variance cost of raw 1/p rescaling")
	return nil
}
