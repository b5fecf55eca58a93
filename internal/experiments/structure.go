package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/stats"
)

func init() {
	register("table1", "Boundary vs inner nodes per partition (Reddit-sim, METIS, 10 parts)", runTable1)
	register("table3", "Dataset details (analogue of paper Table 3)", runTable3)
	register("fig3", "Distribution of boundary/inner ratios (papers100M-sim, 192 parts)", runFig3)
	register("fig8", "Normalized per-partition memory under BNS (papers100M-sim, 192 parts)", runFig8)
}

// runTable1 reproduces Table 1: the per-partition inner/boundary counts of a
// METIS 10-way partition, whose boundary sets dwarf the inner sets.
func runTable1(w io.Writer, o Options) error {
	o = o.withDefaults()
	ds, err := dataset(redditSpec(), o)
	if err != nil {
		return err
	}
	const k = 10
	topo, err := topology(ds, k, "metis", o.Seed)
	if err != nil {
		return err
	}
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Partition\t# Inner\t# Boundary\tRatio\n")
	for i := 0; i < k; i++ {
		nin, nbd := len(topo.Inner[i]), len(topo.Boundary[i])
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.2f\n", i+1, nin, nbd, float64(nbd)/float64(nin))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "total communication volume (Eq. 3): %d boundary nodes\n", topo.CommVolume())
	return nil
}

// runTable3 prints the generated datasets' shapes alongside the paper's.
func runTable3(w io.Writer, o Options) error {
	o = o.withDefaults()
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Dataset\t#Nodes\t#Edges\tAvgDeg\t#Feat\t#Classes\tMultiLabel\tTrain/Val/Test\n")
	specs := allSpecs()
	cfgs := []datagen.Config{}
	for _, s := range specs {
		cfgs = append(cfgs, s.gen(o.Scale, o.Seed))
	}
	cfgs = append(cfgs, datagen.Papers100MSim(o.Scale, o.Seed))
	for _, cfg := range cfgs {
		ds, err := datagen.Generate(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%d\t%d\t%v\t%.2f/%.2f/%.2f\n",
			ds.Name, ds.G.N, ds.G.NumEdges(), ds.G.AvgDegree(), cfg.FeatureDim,
			ds.NumClasses, ds.MultiLabel, cfg.TrainFrac, cfg.ValFrac, 1-cfg.TrainFrac-cfg.ValFrac)
	}
	return tw.Flush()
}

// papersTopo builds the papers100M-analogue topology (192 parts in full
// mode, 24 in quick mode to keep benchmarks fast). The partition statistics
// need only the graph; features asks for the feature columns training needs.
func papersTopo(o Options, features bool) (*datagen.Dataset, *core.Topology, int, error) {
	cfg := datagen.Papers100MSim(o.Scale, o.Seed)
	cfg.StructureOnly = !features
	ds, err := datasetByCfg(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	k := 192
	if o.Quick {
		k = 24
	}
	topo, err := topology(ds, k, "metis", o.Seed)
	if err != nil {
		return nil, nil, 0, err
	}
	return ds, topo, k, nil
}

// runFig3 reproduces Figure 3: the skewed distribution of boundary-to-inner
// ratios at 192 partitions, with a long straggler tail.
func runFig3(w io.Writer, o Options) error {
	o = o.withDefaults()
	_, topo, k, err := papersTopo(o, false)
	if err != nil {
		return err
	}
	ratios := topo.BoundaryRatios()
	box := stats.BoxStats(ratios)
	fmt.Fprintf(w, "boundary/inner ratios across %d partitions:\n", k)
	fmt.Fprintf(w, "min=%.2f q1=%.2f median=%.2f q3=%.2f max(straggler)=%.2f\n",
		box.Min, box.Q1, box.Median, box.Q3, box.Max)
	h := stats.NewHistogram(ratios, 0, box.Max*1.01, 12)
	fmt.Fprint(w, h.Render(40))
	return nil
}

// runFig8 reproduces Figure 8: per-partition memory (Eq. 4), normalized by
// the straggler, for p ∈ {1, 0.1, 0.01}: sampling restores balance.
func runFig8(w io.Writer, o Options) error {
	o = o.withDefaults()
	_, topo, k, err := papersTopo(o, false)
	if err != nil {
		return err
	}
	dims := []int{128, 128, 128} // paper: 3-layer, 128-hidden model
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "p\tmin\tq1\tmedian\tq3\tmax\n")
	for _, p := range []float64{1.0, 0.1, 0.01} {
		mems := topo.MemoryCosts(dims, p)
		var mx float64
		vals := make([]float64, k)
		for i, m := range mems {
			vals[i] = float64(m)
			if vals[i] > mx {
				mx = vals[i]
			}
		}
		for i := range vals {
			vals[i] /= mx
		}
		b := stats.BoxStats(vals)
		fmt.Fprintf(tw, "%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n", p, b.Min, b.Q1, b.Median, b.Q3, b.Max)
	}
	return tw.Flush()
}
