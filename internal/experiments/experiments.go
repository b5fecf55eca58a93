// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section 4 and Appendices B–E) on the synthetic
// datasets, printing rows/series in the same shape the paper reports.
// cmd/bnsbench dispatches into this package, and TestStructuralExperimentsRun
// runs every registered experiment in quick mode.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/partition"
)

// Options control experiment size so the same code serves quick smoke runs
// and cmd/bnsbench's full-size ones.
type Options struct {
	// Scale multiplies dataset node counts (presets are sized for a 2-core
	// CPU budget at Scale=1).
	Scale int
	// Epochs overrides each experiment's default epoch count when > 0.
	Epochs int
	// Runs is the number of repeated runs for mean±std columns (default 1).
	Runs int
	// Quick truncates every experiment to a few epochs — used by the tests
	// to exercise the full code path cheaply.
	Quick bool
	// Seed is the master seed; all randomness derives from it.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Runs <= 0 {
		o.Runs = 1
	}
	if o.Seed == 0 {
		o.Seed = 20220322 // BNS-GCN arXiv date
	}
	return o
}

func (o Options) epochs(def int) int {
	if o.Quick {
		return 3
	}
	if o.Epochs > 0 {
		return o.Epochs
	}
	return def
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(w io.Writer, o Options) error
}

var registry []Runner

func register(id, title string, run func(w io.Writer, o Options) error) {
	registry = append(registry, Runner{ID: id, Title: title, Run: run})
}

// Registry returns all experiments in paper order.
func Registry() []Runner {
	out := append([]Runner(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by id.
func Lookup(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// dataSpec couples a dataset generator with the paper's per-dataset model
// hyperparameters (Section 4 "Models"), scaled down in width.
type dataSpec struct {
	gen    func(scale int, seed uint64) datagen.Config
	model  core.ModelConfig
	epochs int
	parts  []int // partition counts used in the paper's figures
}

func redditSpec() dataSpec {
	return dataSpec{
		gen:    datagen.RedditSim,
		model:  core.ModelConfig{Arch: core.ArchSAGE, Layers: 4, Hidden: 32, Dropout: 0.2, LR: 0.01, Seed: 1},
		epochs: 120,
		parts:  []int{2, 4, 8},
	}
}

func productsSpec() dataSpec {
	return dataSpec{
		gen:    datagen.ProductsSim,
		model:  core.ModelConfig{Arch: core.ArchSAGE, Layers: 3, Hidden: 32, Dropout: 0.15, LR: 0.005, Seed: 1},
		epochs: 150,
		parts:  []int{5, 8, 10},
	}
}

func yelpSpec() dataSpec {
	return dataSpec{
		gen:    datagen.YelpSim,
		model:  core.ModelConfig{Arch: core.ArchSAGE, Layers: 4, Hidden: 32, Dropout: 0.1, LR: 0.003, Seed: 1},
		epochs: 120,
		parts:  []int{3, 6, 10},
	}
}

func allSpecs() []dataSpec { return []dataSpec{redditSpec(), productsSpec(), yelpSpec()} }

// Dataset cache: experiments within one process share generated datasets
// (keyed on the whole generator config) and partitions (keyed on the graph:
// Generate draws the graph before the features, so a config that differs
// only in its features shares its partitions).
var (
	dsMu    sync.Mutex
	dsCache = map[datagen.Config]*datagen.Dataset{}
	ptCache = map[string][]int32{}
)

func dataset(spec dataSpec, o Options) (*datagen.Dataset, error) {
	return datasetByCfg(spec.gen(o.Scale, o.Seed))
}

func datasetByCfg(cfg datagen.Config) (*datagen.Dataset, error) {
	dsMu.Lock()
	defer dsMu.Unlock()
	if ds, ok := dsCache[cfg]; ok {
		return ds, nil
	}
	ds, err := datagen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	dsCache[cfg] = ds
	return ds, nil
}

// partitionFor returns a cached partition assignment.
func partitionFor(ds *datagen.Dataset, k int, method string, seed uint64) ([]int32, error) {
	dsMu.Lock()
	defer dsMu.Unlock()
	key := fmt.Sprintf("%s/%d/%d/%s/%d", ds.Name, ds.G.N, k, method, seed)
	if p, ok := ptCache[key]; ok {
		return p, nil
	}
	var pt partition.Partitioner
	switch method {
	case "metis":
		pt = &partition.Metis{Seed: seed}
	case "random":
		pt = &partition.Random{Seed: seed}
	default:
		return nil, fmt.Errorf("experiments: unknown partitioner %q", method)
	}
	parts, err := pt.Partition(ds.G, k)
	if err != nil {
		return nil, err
	}
	ptCache[key] = parts
	return parts, nil
}

func topology(ds *datagen.Dataset, k int, method string, seed uint64) (*core.Topology, error) {
	parts, err := partitionFor(ds, k, method, seed)
	if err != nil {
		return nil, err
	}
	return core.BuildTopology(ds.G, parts, k)
}

// bnsResult summarizes one BNS training run.
type bnsResult struct {
	TestScore float64
	Curve     metrics.Curve
	// Aggregates over all epochs.
	AvgStats core.EpochStats
	Epochs   int
	Topo     *core.Topology
	Trainer  *core.ParallelTrainer
}

// trainBNS runs the partition-parallel engine end to end and returns the
// result. strategy picks the epoch sampler: BNS at rate p, or LADIES at an
// expected ladiesBudget slots, which ignores p. evalEvery=0 evaluates only at
// the end.
func trainBNS(ds *datagen.Dataset, topo *core.Topology, model core.ModelConfig, p float64, epochs, evalEvery int, seed uint64, strategy core.Strategy) (*bnsResult, error) {
	model.Seed = seed
	tr, err := core.NewParallelTrainer(ds, topo, core.ParallelConfig{Model: model, P: p, SampleSeed: seed + 1, Strategy: strategy, Budget: ladiesBudget})
	if err != nil {
		return nil, err
	}
	res := &bnsResult{Topo: topo, Epochs: epochs, Trainer: tr}
	for e := 1; e <= epochs; e++ {
		st := tr.TrainEpoch()
		addEpochStats(&res.AvgStats, st)
		if evalEvery > 0 && e%evalEvery == 0 {
			res.Curve.Add(e, tr.Evaluate(ds.TestMask))
		}
	}
	avgEpochStats(&res.AvgStats, epochs)
	res.TestScore = tr.Evaluate(ds.TestMask)
	return res, nil
}

// addEpochStats accumulates one epoch's stats into agg, and avgEpochStats
// divides the accumulation by the epoch count — the single aggregation pair
// every experiment uses. Every scalar field of core.EpochStats must be
// handled by BOTH functions (the per-partition SampledBd slice is the one
// deliberate exception — no experiment averages it):
// TestEpochStatsAggregationCoversAllFields sets every field via reflection
// and fails when a newly added field is dropped here (it would read 0) or
// summed but never divided (it would read n× its value), so a new stats
// field cannot silently skew a table the way ExposedCommTime once
// threatened to.
func addEpochStats(agg, st *core.EpochStats) {
	agg.Loss += st.Loss
	agg.SampleTime += st.SampleTime
	agg.ComputeTime += st.ComputeTime
	agg.CommTime += st.CommTime
	agg.ExposedCommTime += st.ExposedCommTime
	agg.ReduceTime += st.ReduceTime
	agg.CommBytes += st.CommBytes
	agg.ReduceBytes += st.ReduceBytes
}

func avgEpochStats(agg *core.EpochStats, epochs int) {
	n := int64(epochs)
	agg.Loss /= float64(n)
	agg.SampleTime /= time.Duration(n)
	agg.ComputeTime /= time.Duration(n)
	agg.CommTime /= time.Duration(n)
	agg.ExposedCommTime /= time.Duration(n)
	agg.ReduceTime /= time.Duration(n)
	agg.CommBytes /= n
	agg.ReduceBytes /= n
}

// newTabWriter returns a standard table writer for experiment output.
func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
