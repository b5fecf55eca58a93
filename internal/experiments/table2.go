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
		bns := featureVariance(topo, ds.Features, bnsRates(topo, p), trials, o.Seed)
		ladies := featureVariance(topo, ds.Features, layerRates(topo, p, false), trials, o.Seed+1)
		fastgcn := featureVariance(topo, ds.Features, layerRates(topo, p, true), trials, o.Seed+2)
		fmt.Fprintf(tw, "%.2f\t%.4g\t%.4g\t%.4g\t%.4g\n", p, bns, ladies, fastgcn, bnsVarianceBound(topo, ds.Features, p))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expected ordering (paper Table 2): BNS < LADIES-style < FastGCN-style")
	return nil
}

// bnsRates are BNS's keep probabilities: partition i always keeps its own
// nodes (local neighbors) and keeps each of its boundary nodes with
// probability p.
func bnsRates(t *core.Topology, p float64) [][]float64 {
	rates := make([][]float64, t.K)
	for i := range rates {
		q := make([]float64, t.G.N)
		for u, part := range t.Parts {
			if part == int32(i) {
				q[u] = 1
			}
		}
		for _, u := range t.Boundary[i] {
			q[u] = p
		}
		rates[i] = q
	}
	return rates
}

// layerRates are the keep probabilities of a layer sampler whose domain is
// either the partition's full neighbor set N_i (LADIES-style, global=false)
// or the entire node set V (FastGCN-style, global=true). Following the
// paper's fixed-sample-size protocol (s_ℓ = s_n), every scheme draws the same
// expected number of sampled nodes per partition as BNS at rate p, namely
// s = p·|B_i| — but LADIES/FastGCN must spend that budget on their whole
// domain (they treat all neighbors as remote), keeping each element with
// q = s/|domain|, which is exactly why their variance scales with |N_i| and
// |V| in Table 2.
func layerRates(t *core.Topology, p float64, global bool) [][]float64 {
	g := t.G
	rates := make([][]float64, t.K)
	for i := range rates {
		q := make([]float64, g.N)
		domain := g.N
		if !global {
			domain = 0
			for _, v := range t.Inner[i] {
				for _, u := range g.Neighbors(v) {
					if q[u] == 0 {
						q[u] = 1
						domain++
					}
				}
			}
		}
		rate := min(p*float64(len(t.Boundary[i]))/float64(domain), 1)
		for u := range q {
			if global || q[u] != 0 {
				q[u] = rate
			}
		}
		rates[i] = q
	}
	return rates
}

// featureVariance estimates E‖Z̃−Z‖²_F/|V| over the given number of trials,
// where Z is the exact mean-aggregated feature matrix over every
// partition's inner nodes and Z̃ its estimate when partition i keeps node u
// with probability rates[i][u] and weights it 1/rates[i][u] (unbiased). One
// stream draws every trial's masks, partition by partition in ascending node
// id, so one seed gives one number.
func featureVariance(t *core.Topology, feats *tensor.Matrix, rates [][]float64, trials int, seed uint64) float64 {
	rng := tensor.NewRNG(seed)
	exact := make([]*tensor.Matrix, t.K)
	for i := range exact {
		exact[i] = aggregate(t, feats, i, nil)
	}
	w := make([]float32, t.G.N)
	var sumSq float64
	for trial := 0; trial < trials; trial++ {
		for i, q := range rates {
			drawWeights(rng, q, w)
			z := aggregate(t, feats, i, w)
			z.Sub(exact[i])
			n := z.FrobeniusNorm()
			sumSq += n * n
		}
	}
	return sumSq / float64(trials) / float64(t.G.N)
}

// drawWeights draws one trial's neighbor weights from keep probabilities q:
// 1/q[u] for a kept node and 0 for a dropped one. A node with q[u] ≥ 1 is
// kept and one with q[u] = 0 dropped without a draw.
func drawWeights(rng *tensor.RNG, q []float64, w []float32) {
	for u, r := range q {
		switch {
		case r >= 1:
			w[u] = 1
		case r > 0 && rng.Float64() < r:
			w[u] = float32(1 / r)
		default:
			w[u] = 0
		}
	}
}

// aggregate computes partition i's rows of the mean aggregation under
// global-degree normalization, neighbor u's features weighted w[u]: Z for a
// nil w, Z̃ for drawn weights.
func aggregate(t *core.Topology, feats *tensor.Matrix, i int, w []float32) *tensor.Matrix {
	inner := t.Inner[i]
	z := tensor.New(len(inner), feats.Cols)
	for li, v := range inner {
		nbrs := t.G.Neighbors(v)
		if len(nbrs) == 0 {
			continue
		}
		row := z.Row(li)
		for _, u := range nbrs {
			s := float32(1)
			if w != nil {
				s = w[u]
			}
			for c, x := range feats.Row(int(u)) {
				row[c] += x * s
			}
		}
		s := 1 / float32(len(nbrs))
		for c := range row {
			row[c] *= s
		}
	}
	return z
}

// bnsVarianceBound is Appendix A's analytic bound on BNS's variance,
// γ²·Σᵢ‖P_{Vi,Bi}‖²_F / (p·|V|), with γ the largest feature-row norm and P
// the mean-aggregation operator (row v has entries 1/deg(v) at its
// neighbors).
func bnsVarianceBound(t *core.Topology, feats *tensor.Matrix, p float64) float64 {
	var gamma2 float64
	for v := 0; v < feats.Rows; v++ {
		var s float64
		for _, x := range feats.Row(v) {
			s += float64(x) * float64(x)
		}
		gamma2 = max(gamma2, s)
	}
	var frob float64
	for i := 0; i < t.K; i++ {
		for _, v := range t.Inner[i] {
			d := float64(t.G.Degree(v))
			remote := 0
			for _, u := range t.G.Neighbors(v) {
				if t.Parts[u] != int32(i) {
					remote++
				}
			}
			if d > 0 {
				frob += float64(remote) / (d * d)
			}
		}
	}
	return gamma2 * frob / (p * float64(t.G.N))
}
