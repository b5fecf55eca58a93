package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be registered.
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"table8", "table9", "table10", "table11", "table12", "table13",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"ablation1",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(Registry()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Registry()), len(want))
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("table99"); ok {
		t.Fatal("unknown id must not resolve")
	}
}

func TestRegistryTitlesNonEmpty(t *testing.T) {
	for _, r := range Registry() {
		if r.Title == "" || r.Run == nil {
			t.Fatalf("experiment %q incomplete", r.ID)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scale != 1 || o.Runs != 1 || o.Seed == 0 {
		t.Fatalf("defaults %+v", o)
	}
	if (Options{Quick: true}).epochs(500) != 3 {
		t.Fatal("quick mode must truncate epochs")
	}
	if (Options{Epochs: 7}).epochs(500) != 7 {
		t.Fatal("epoch override ignored")
	}
	if (Options{}).epochs(500) != 500 {
		t.Fatal("default epochs ignored")
	}
}

// TestStructuralExperimentsRun runs every registered experiment end to end
// in quick mode — what `bnsbench -exp all -quick` runs — and checks that its
// output carries one row or column it must print. An experiment registered
// without a case here fails the test, so none can skip it.
func TestStructuralExperimentsRun(t *testing.T) {
	cases := map[string]string{
		"ablation1": "estimators coincide",
		"fig3":      "straggler",
		"fig4":      "speedup vs p=1",
		"fig5":      "comm share",
		"fig6":      "p=0.1",
		"fig7":      "products-sim, 10 partitions",
		"fig8":      "median",
		"fig9":      "yelp-sim, 10 partitions",
		"table1":    "Ratio",
		"table2":    "BNS variance",
		"table3":    "reddit-sim",
		"table4":    "BNS-GCN (p=0)",
		"table5":    "ClusterGCN",
		"table6":    "halo MB",
		"table7":    "random+BNS",
		"table8":    "partitioner",
		"table9":    "BES",
		"table10":   "speedup",
		"table11":   "LADIES (engine, budget 256)",
		"table12":   "GraphSAINT (engine, m=8, frac 0.5)",
		"table13":   "p=0.8",
	}
	for _, r := range Registry() {
		needle, ok := cases[r.ID]
		if !ok {
			t.Errorf("experiment %q has no case", r.ID)
			continue
		}
		delete(cases, r.ID)
		t.Run(r.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := r.Run(&buf, Options{Quick: true}); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), needle) {
				t.Fatalf("output missing %q:\n%s", needle, buf.String())
			}
		})
	}
	for id := range cases {
		t.Errorf("case %q names no registered experiment", id)
	}
}

// TestTable2OrderingHolds is the variance experiment's headline claim as a
// unit test: BNS variance below LADIES-style below FastGCN-style.
func TestTable2OrderingHolds(t *testing.T) {
	var buf bytes.Buffer
	r, _ := Lookup("table2")
	if err := r.Run(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "BNS") {
		t.Fatalf("unexpected output: %s", out)
	}
	// Parse the p=0.50 row: p, bns, ladies, fastgcn, bound.
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "0.50") {
			continue
		}
		var p, bns, ladies, fastgcn, bound float64
		if _, err := fmtSscan(line, &p, &bns, &ladies, &fastgcn, &bound); err != nil {
			t.Fatalf("cannot parse %q: %v", line, err)
		}
		if !(bns < ladies && ladies < fastgcn) {
			t.Fatalf("variance ordering violated: bns=%v ladies=%v fastgcn=%v", bns, ladies, fastgcn)
		}
		if bns > bound {
			t.Fatalf("bns variance %v above bound %v", bns, bound)
		}
		return
	}
	t.Fatal("p=0.50 row not found")
}

// fmtSscan wraps fmt.Sscan to keep the test import list tidy.
func fmtSscan(line string, args ...any) (int, error) {
	return sscan(line, args...)
}

// TestTable2DomainVarianceDeterministic: the LADIES- and FastGCN-style
// estimates are a function of their seed — two calls with one seed return the
// same float, so Table 2 prints the same numbers on every run.
func TestTable2DomainVarianceDeterministic(t *testing.T) {
	o := Options{Quick: true}.withDefaults()
	ds, err := dataset(redditSpec(), o)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology(ds, 8, "metis", o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, global := range []bool{false, true} {
		a := measureDomainVariance(topo, ds.Features, 0.3, 2, 7, global)
		b := measureDomainVariance(topo, ds.Features, 0.3, 2, 7, global)
		if a != b {
			t.Fatalf("global=%v: one seed gave %v then %v", global, a, b)
		}
	}
}

// TestMeasureEpochCommFallsWithP: the measuring helper's halo bytes on
// reddit-sim at 4 partitions fall strictly as p goes 1 → 0.1 → 0.01, and
// p=0.1 sends at most a fifth of p=1. Bytes are a function of the seed, so
// this cannot pass or fail by timing.
func TestMeasureEpochCommFallsWithP(t *testing.T) {
	o := Options{Quick: true}.withDefaults()
	spec := redditSpec()
	ds, err := dataset(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology(ds, 4, "metis", o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var bytes []int64
	for _, p := range []float64{1, 0.1, 0.01} {
		st, err := measureEpoch(ds, topo, spec.model, p, o)
		if err != nil {
			t.Fatal(err)
		}
		bytes = append(bytes, st.CommBytes)
	}
	if !(bytes[0] > bytes[1] && bytes[1] > bytes[2]) {
		t.Fatalf("halo bytes at p=1, 0.1, 0.01: %v, want strictly falling", bytes)
	}
	if float64(bytes[1]) > 0.2*float64(bytes[0]) {
		t.Fatalf("p=0.1 sent %d bytes, more than 0.2x p=1's %d", bytes[1], bytes[0])
	}
}
