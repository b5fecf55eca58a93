package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/tensor"
)

// varianceFixture is quick-mode reddit-sim cut into k partitions.
func varianceFixture(t *testing.T, k int) (*datagen.Dataset, *core.Topology) {
	t.Helper()
	o := Options{Quick: true}.withDefaults()
	ds, err := dataset(redditSpec(), o)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology(ds, k, "metis", o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds, topo
}

// TestVarianceDecreasesWithP: BNS's feature variance falls as p rises and
// is exactly 0 at p=1, where every boundary node is kept.
func TestVarianceDecreasesWithP(t *testing.T) {
	ds, topo := varianceFixture(t, 4)
	v01 := featureVariance(topo, ds.Features, bnsRates(topo, 0.1), 30, 1)
	v05 := featureVariance(topo, ds.Features, bnsRates(topo, 0.5), 30, 1)
	v10 := featureVariance(topo, ds.Features, bnsRates(topo, 1), 5, 1)
	if !(v01 > v05) {
		t.Fatalf("variance not decreasing: p=0.1 %v, p=0.5 %v", v01, v05)
	}
	if v10 != 0 {
		t.Fatalf("p=1 variance %v, want 0", v10)
	}
}

// TestVarianceWithinBound: BNS's measured variance stays under Appendix A's
// analytic bound, which is positive on a partitioned graph.
func TestVarianceWithinBound(t *testing.T) {
	ds, topo := varianceFixture(t, 4)
	for _, p := range []float64{0.1, 0.3, 0.7} {
		v := featureVariance(topo, ds.Features, bnsRates(topo, p), 30, 2)
		bound := bnsVarianceBound(topo, ds.Features, p)
		if bound <= 0 {
			t.Fatalf("p=%v: bound %v, want positive for a partitioned graph", p, bound)
		}
		if v > bound {
			t.Fatalf("p=%v: empirical variance %v exceeds analytic bound %v", p, v, bound)
		}
	}
}

// TestSampledAggregationUnbiased: the mean of BNS's Z̃ over many independent
// trials converges to Z.
func TestSampledAggregationUnbiased(t *testing.T) {
	ds, topo := varianceFixture(t, 3)
	const i, trials = 0, 400
	q := bnsRates(topo, 0.4)[i]
	rng := tensor.NewRNG(3)
	exact := aggregate(topo, ds.Features, i, nil)
	mean := tensor.New(exact.Rows, exact.Cols)
	w := make([]float32, ds.G.N)
	for trial := 0; trial < trials; trial++ {
		drawWeights(rng, q, w)
		mean.Add(aggregate(topo, ds.Features, i, w))
	}
	mean.Scale(1.0 / trials)
	mean.Sub(exact)
	// Relative error of the empirical mean shrinks as 1/sqrt(trials).
	rel := mean.FrobeniusNorm() / (exact.FrobeniusNorm() + 1e-12)
	if rel > 0.1 {
		t.Fatalf("sampled aggregation biased: relative error %v", rel)
	}
}
