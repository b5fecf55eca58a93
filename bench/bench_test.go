package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestContract pins BENCHMARK.json to the limits a driver enforces
// before it makes a single run.
func TestManifestContract(t *testing.T) {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command end_to_end paths per_layer run_seconds workloads"; strings.Join(got, " ") != want {
		t.Errorf("keys %v, want exactly %s", got, want)
	}
	man, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", man.RunSeconds)
	}
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range man.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, specs[i].name)
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), man.EndToEnd...), man.PerLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	for _, d := range man.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if !hasSetup {
		t.Error("no end-to-end metric setup_s with unit s, lower is better")
	}
}

// TestQuickWorkloads runs all five workloads, untraced and traced, at smoke
// size: every output check passes, every run renders as a contract line (so
// no unlisted name, no NaN or Inf), the names emitted are exactly the names
// BENCHMARK.json lists, and each traced run leaves a loadable trace.
func TestQuickWorkloads(t *testing.T) {
	man, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	measured := map[bool]map[string]bool{false: {}, true: {}}
	for id, s := range specs {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(s, id, quickSizing(), runOpts{seed: 1, trace: trace, outDir: outDir})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d problems=%v",
					s.name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			if _, err := res.contractLine(man); err != nil {
				t.Error(err)
			}
			for name := range res.Metrics {
				measured[trace][name] = true
			}
		}
		raw, err := os.ReadFile(filepath.Join(outDir, s.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string
				Dur  float64
			}
		}
		if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace does not load: %v, %d events", s.name, err, len(doc.TraceEvents))
		}
	}
	for _, trace := range []bool{false, true} {
		for _, d := range man.defs(trace) {
			if !measured[trace][d.Name] {
				t.Errorf("BENCHMARK.json lists %s (trace %v) but no workload measured it", d.Name, trace)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestCompareVerdicts feeds -compare two synthetic sets: a metric that moved
// less than its bound, one that got worse by more, and one too noisy to call.
func TestCompareVerdicts(t *testing.T) {
	man := &manifest{
		Workloads: []workloadDef{{Name: "w"}},
		EndToEnd: []metricDef{
			{Name: "steady", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "slower", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "dropped", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "noisy", Unit: "ms", Better: "lower", Bound: 0.1},
		},
	}
	dir := t.TempDir()
	write := func(name string, steady, slower, dropped float64, noisy []float64) string {
		path := filepath.Join(dir, name)
		for _, n := range noisy {
			res := &result{Workload: "w", Correct: true, Attempted: 1,
				Metrics: map[string]float64{"steady": steady, "slower": slower, "dropped": dropped, "noisy": n}}
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.json", 100, 100, 100, []float64{80, 100, 120, 90, 110})
	b := write("b.json", 104, 130, 80, []float64{85, 100, 125, 95, 105})
	var out strings.Builder
	if err := compareFiles(man, a, b, &out); err != errChecks {
		t.Errorf("compareFiles returned %v, want errChecks for the worse pairs", err)
	}
	for metric, verdict := range map[string]string{"steady": "same", "slower": "worse", "dropped": "worse", "noisy": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric+" (") && strings.HasSuffix(strings.TrimSpace(line), verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("metric %s not reported as %s in:\n%s", metric, verdict, out.String())
		}
	}
	if err := compareFiles(man, a, a, &out); err != nil {
		t.Errorf("a set compared with itself: %v", err)
	}
}
