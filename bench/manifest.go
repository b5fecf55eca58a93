package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// manifest is what the program reads of BENCHMARK.json, the one place metric
// names, units, directions and regression bounds are written down: the program
// labels and orders what it prints by it, and refuses to emit a metric it does
// not list, so the two cannot drift apart.
type manifest struct {
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// defs returns the metric list one pass reports: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (m *manifest) defs(trace bool) []metricDef {
	if trace {
		return m.PerLayer
	}
	return m.EndToEnd
}

// result is one run of one workload.
type result struct {
	Stamp     stamp              `json:"stamp"`
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Disturbed bool               `json:"disturbed"` // host.steal_frac > 0.05 while measuring
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders the run as the one JSON object a driver reads from the
// last line of standard output. Every metric the manifest lists for the pass
// is present: an end-to-end metric the run did not measure is an error, a
// per-layer metric it did not measure is a layer that did no work on this
// workload and reads 0. A measured name the manifest does not list, or a
// value that is not finite, is an error too.
func (r *result) contractLine(m *manifest) ([]byte, error) {
	defs := m.defs(r.Trace)
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok && !r.Trace {
			return nil, fmt.Errorf("workload %s did not measure end-to-end metric %s", r.Workload, d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name, v := range r.Metrics {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("workload %s measured %s, which BENCHMARK.json does not list for this pass", r.Workload, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("workload %s: %s is %v", r.Workload, name, v)
		}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, out})
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// lowerQuartile and upperQuartile are what the end-to-end timing metrics
// report of a run's samples. A neighbour on a shared host only ever adds time,
// and here it adds it to a third to a half of a run's epochs, so the median
// lands on a disturbed epoch in one run and on a quiet one in the next, while
// the quartile on the quiet side holds: over the same ten runs of k1-dense the
// median epoch spread by 0.12 of itself, the lower quartile by 0.06.
func lowerQuartile(xs []float64) float64 { return quantile(sortedCopy(xs), 0.25) }
func upperQuartile(xs []float64) float64 { return quantile(sortedCopy(xs), 0.75) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
