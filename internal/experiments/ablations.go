package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/sampling"
)

// ladiesBudget is the expected boundary slots per rank per epoch the
// engine-hosted LADIES rows of Tables 11 and 12 keep.
const ladiesBudget = 256

func init() {
	register("table9", "BNS vs DropEdge vs Boundary Edge Sampling (equal edge budget)", runTable9)
	register("table10", "Epoch time speedup of BNS on GAT", runTable10)
	register("table11", "Per-epoch train time vs sampling methods (reddit-sim, 8 parts)", runTable11)
	register("table12", "Sampling overhead of BNS vs GraphSAINT samplers", runTable12)
}

// runTable9 reproduces Table 9: with the same number of dropped edges,
// edge-sampling methods leave most boundary nodes alive and therefore keep
// most of the communication, while BNS removes it at the source.
func runTable9(w io.Writer, o Options) error {
	o = o.withDefaults()
	const p = 0.1 // BNS rate that sets the shared edge budget
	configs := []struct {
		spec dataSpec
		k    int
	}{
		{redditSpec(), 2},
		{productsSpec(), 5},
		{yelpSpec(), 3},
	}
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "dataset\tmethod\tepoch comm (MB)\tepoch time (s)\ttest score\n")
	for _, c := range configs {
		ds, err := dataset(c.spec, o)
		if err != nil {
			return err
		}
		epochs := o.epochs(c.spec.epochs * 2 / 3)
		topo, err := topology(ds, c.k, "metis", o.Seed)
		if err != nil {
			return err
		}
		// Shared edge budget: how many undirected edges BNS(p) drops.
		bnsDrop := sampling.BNSDroppedEdges(topo, p)
		var cross int64
		for v := int32(0); v < int32(ds.G.N); v++ {
			for _, u := range ds.G.Neighbors(v) {
				if u > v && topo.Parts[u] != topo.Parts[v] {
					cross++
				}
			}
		}
		dimsSum := modelDimsSum(c.spec.model, ds.FeatureDim(), ds.NumClasses)

		// DropEdge: drop bnsDrop edges anywhere.
		keepGlobal := 1 - float64(bnsDrop)/float64(ds.G.NumEdges())
		// BES: drop bnsDrop edges among cross edges only.
		keepCross := 1 - float64(bnsDrop)/float64(cross)
		if keepCross < 0 {
			keepCross = 0
		}
		for _, m := range []struct {
			mode sampling.EdgeDropMode
			keep float64
		}{{sampling.DropEdgeGlobal, keepGlobal}, {sampling.DropEdgeBoundary, keepCross}} {
			s := sampling.NewEdgeDropSampler(topo, ds.TrainMask, m.mode, m.keep, o.Seed)
			tr, err := sampling.NewMinibatchTrainer(ds, c.spec.model, s)
			if err != nil {
				return err
			}
			start := time.Now()
			for e := 0; e < epochs; e++ {
				tr.TrainEpoch()
			}
			epochTime := time.Since(start).Seconds() / float64(epochs)
			commMB := float64(s.LastCommVolume) * float64(dimsSum) * 4 / 1e6
			fmt.Fprintf(tw, "%s\t%s\t%.1f\t%.3f\t%s\n",
				ds.Name, m.mode, commMB, epochTime, pct(tr.Evaluate(ds.TestMask)))
		}
		res, err := trainBNS(ds, topo, c.spec.model, p, epochs, 0, o.Seed, core.BNS)
		if err != nil {
			return err
		}
		commMB := float64(res.AvgStats.CommBytes) / 1e6
		fmt.Fprintf(tw, "%s\tBNS-GCN\t%.1f\t%.3f\t%s\n",
			ds.Name, commMB, res.AvgStats.TotalTime().Seconds(), pct(res.TestScore))
	}
	return tw.Flush()
}

// modelDimsSum returns Σ_ℓ d_ℓ over layer input dims plus backward dims,
// the per-boundary-node float traffic of one epoch.
func modelDimsSum(mc core.ModelConfig, inDim, outDim int) int {
	sum := 0
	for l := 0; l < mc.Layers; l++ {
		d := mc.Hidden
		if l == 0 {
			d = inDim
		}
		sum += d // forward
		if l >= 1 {
			sum += d // backward
		}
	}
	return sum
}

// runTable10 reproduces Table 10: BNS speedups hold on GAT, a heavier model
// than GraphSAGE. Speedups are measured on this runtime's wall clock.
func runTable10(w io.Writer, o Options) error {
	o = o.withDefaults()
	spec := redditSpec()
	ds, err := dataset(spec, o)
	if err != nil {
		return err
	}
	epochs := o.epochs(10)
	if !o.Quick && epochs > 20 {
		epochs = 20
	}
	const k = 8
	topo, err := topology(ds, k, "metis", o.Seed)
	if err != nil {
		return err
	}
	mc := core.ModelConfig{Arch: core.ArchGAT, Layers: 2, Hidden: 16, Dropout: 0, LR: 0.01, Seed: 1}
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "p\tepoch time (s)\tspeedup\n")
	var baseline float64
	for _, p := range []float64{1.0, 0.1, 0.01, 0.0} {
		res, err := trainBNS(ds, topo, mc, p, epochs, 0, o.Seed, core.BNS)
		if err != nil {
			return err
		}
		t := res.AvgStats.TotalTime().Seconds()
		if p == 1.0 {
			baseline = t
		}
		fmt.Fprintf(tw, "%.2g\t%.4f\t%.2fx\n", p, t, baseline/t)
	}
	return tw.Flush()
}

// runTable11 reproduces Table 11 (Appendix C): measured per-epoch train time
// of the sampling baselines against BNS-GCN on reddit-sim with 8 partitions,
// plus the engine-hosted LADIES strategy on the same partitions, whose halo
// traffic sits beside BNS's. LADIES runs on the engine, so SampleTime and
// CommBytes price it exactly as they price BNS.
func runTable11(w io.Writer, o Options) error {
	o = o.withDefaults()
	spec := redditSpec()
	ds, err := dataset(spec, o)
	if err != nil {
		return err
	}
	epochs := o.epochs(8)
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "method\ttrain time per epoch (s)\tspeedup vs GraphSAGE\thalo MB/epoch\n")
	var sageTime float64
	for _, b := range []string{"GraphSAGE", "FastGCN", "ClusterGCN"} {
		s, err := baselineSampler(b, ds, o)
		if err != nil {
			return err
		}
		tr, err := sampling.NewMinibatchTrainer(ds, spec.model, s)
		if err != nil {
			return err
		}
		start := time.Now()
		for e := 0; e < epochs; e++ {
			tr.TrainEpoch()
		}
		per := time.Since(start).Seconds() / float64(epochs)
		if b == "GraphSAGE" {
			sageTime = per
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.1fx\t-\n", b, per, sageTime/per)
	}
	topo, err := topology(ds, 8, "metis", o.Seed)
	if err != nil {
		return err
	}
	type row struct {
		name     string
		p        float64
		strategy core.Strategy
	}
	var rows []row
	for _, p := range []float64{1.0, 0.1, 0.01} {
		rows = append(rows, row{fmt.Sprintf("BNS-GCN (%.2g)", p), p, core.BNS})
	}
	rows = append(rows, row{fmt.Sprintf("LADIES (engine, budget %d)", ladiesBudget), 1, core.LADIES})
	for _, r := range rows {
		res, err := trainBNS(ds, topo, spec.model, r.p, epochs, 0, o.Seed, r.strategy)
		if err != nil {
			return err
		}
		per := res.AvgStats.TotalTime().Seconds()
		fmt.Fprintf(tw, "%s\t%.3f\t%.1fx\t%.2f\n", r.name, per, sageTime/per, float64(res.AvgStats.CommBytes)/1e6)
	}
	return tw.Flush()
}

// runTable12 reproduces Table 12 (Appendix D): boundary node sampling costs
// a few percent of epoch time, against ~20% for whole-graph samplers (the
// three single-machine GraphSAINT variants). The engine-hosted LADIES
// strategy reports the same share at each m, its sampling timed inside the
// epoch as BNS's is.
func runTable12(w io.Writer, o Options) error {
	o = o.withDefaults()
	spec := redditSpec()
	ds, err := dataset(spec, o)
	if err != nil {
		return err
	}
	epochs := o.epochs(8)
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "sampler\toverhead (sample time / epoch time)\n")
	for _, mode := range []sampling.SAINTMode{sampling.SAINTNode, sampling.SAINTEdge, sampling.SAINTWalk} {
		s := sampling.NewGraphSAINTSampler(ds.G, ds.TrainMask, mode, ds.G.N/8, 4, o.Seed)
		tr, err := sampling.NewMinibatchTrainer(ds, spec.model, s)
		if err != nil {
			return err
		}
		for e := 0; e < epochs; e++ {
			tr.TrainEpoch()
		}
		fmt.Fprintf(tw, "%s\t%s\n", s.Name(), pct(tr.OverheadFraction()))
	}
	sampleShare := func(topo *core.Topology, p float64, strategy core.Strategy) (string, error) {
		res, err := trainBNS(ds, topo, spec.model, p, epochs, 0, o.Seed, strategy)
		if err != nil {
			return "", err
		}
		return pct(float64(res.AvgStats.SampleTime) / float64(res.AvgStats.TotalTime())), nil
	}
	for _, k := range []int{2, 4, 8} {
		topo, err := topology(ds, k, "metis", o.Seed)
		if err != nil {
			return err
		}
		for _, p := range []float64{0.1, 0.01} {
			share, err := sampleShare(topo, p, core.BNS)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "BNS (m=%d, p=%.2g)\t%s\n", k, p, share)
		}
		share, err := sampleShare(topo, 1, core.LADIES)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "LADIES (engine, m=%d, budget %d)\t%s\n", k, ladiesBudget, share)
	}
	return tw.Flush()
}
