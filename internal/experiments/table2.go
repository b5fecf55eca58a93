package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/tensor"
)

func init() {
	register("table2", "Feature approximation variance: BNS vs layer-sampling schemes", runTable2)
}

// runTable2 reproduces Table 2 empirically. The paper's analytic argument is
// that with a fixed sample budget the variance scales with the size of the
// sampling domain, and BNS's domain (the boundary set B_i) is the smallest:
// B_i ⊆ N_i ⊆ V. We measure E‖Z̃−Z‖²/|V| for three estimators sharing one
// budget: BNS (sample B_i), a LADIES-style sampler (sample the full neighbor
// set N_i) and a FastGCN-style sampler (sample all of V).
func runTable2(w io.Writer, o Options) error {
	o = o.withDefaults()
	ds, err := dataset(redditSpec(), o)
	if err != nil {
		return err
	}
	const k = 8
	topo, err := topology(ds, k, "metis", o.Seed)
	if err != nil {
		return err
	}
	trials := 40
	if o.Quick {
		trials = 4
	}
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "p\tBNS variance\tLADIES-style\tFastGCN-style\tBNS analytic bound\n")
	for _, p := range []float64{0.1, 0.3, 0.5} {
		bns := core.MeasureBNSVariance(topo, ds.Features, p, trials, o.Seed)
		ladies := measureDomainVariance(topo, ds.Features, p, trials, o.Seed+1, false)
		fastgcn := measureDomainVariance(topo, ds.Features, p, trials, o.Seed+2, true)
		fmt.Fprintf(tw, "%.2f\t%.4g\t%.4g\t%.4g\t%.4g\n", p, bns.Variance, ladies, fastgcn, bns.Bound)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expected ordering (paper Table 2): BNS < LADIES-style < FastGCN-style")
	return nil
}

// measureDomainVariance estimates E‖Z̃−Z‖²/|V| for a layer sampler whose
// domain is either the partition's full neighbor set N_i (LADIES-style,
// global=false) or the entire node set V (FastGCN-style, global=true).
// Following the paper's fixed-sample-size protocol (s_ℓ = s_n), every scheme
// draws the same expected number of sampled nodes per partition as BNS at
// rate p, namely s = p·|B_i| — but LADIES/FastGCN must spend that budget on
// their whole domain (they treat all neighbors as remote), keeping each
// element with q = s/|domain| and reweighting by 1/q, which is exactly why
// their variance scales with |N_i| and |V| in Table 2.
func measureDomainVariance(t *core.Topology, feats *tensor.Matrix, p float64, trials int, seed uint64, global bool) float64 {
	rng := tensor.NewRNG(seed)
	g := t.G
	var sumSq float64
	keep := make([]bool, g.N)
	inDomain := make([]bool, g.N)
	for trial := 0; trial < trials; trial++ {
		for i := 0; i < t.K; i++ {
			// Domain and budget for partition i.
			clear(inDomain)
			domainSize := 0
			for _, v := range t.Inner[i] {
				for _, u := range g.Neighbors(v) {
					if !inDomain[u] {
						inDomain[u] = true
						domainSize++
					}
				}
			}
			if global {
				domainSize = g.N
			}
			budget := p * float64(len(t.Boundary[i]))
			q := min(budget/float64(domainSize), 1)
			// Draw the keep mask over the domain in ascending node id, so one
			// seed gives one mask.
			for u := range keep {
				keep[u] = (global || inDomain[u]) && rng.Float64() < q
			}
			invQ := float32(1 / q)
			// Accumulate ‖Z̃−Z‖² over partition i's inner nodes.
			for _, v := range t.Inner[i] {
				nbrs := g.Neighbors(v)
				if len(nbrs) == 0 {
					continue
				}
				inv := 1 / float32(len(nbrs))
				for c := 0; c < feats.Cols; c++ {
					var exact, est float32
					for _, u := range nbrs {
						x := feats.At(int(u), c)
						exact += x
						if keep[u] {
							est += x * invQ
						}
					}
					d := float64((est - exact) * inv)
					sumSq += d * d
				}
			}
		}
	}
	return sumSq / float64(trials) / float64(g.N)
}
