package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"repro/internal/core"
)

func init() {
	register("samplers", "Epoch-sampling strategies on the partition-parallel engine: BNS vs partition-local LADIES vs GraphSAINT-style subgraphs", runSamplers)
}

// samplerResult is one (strategy, arch, k) cell of the matrix, averaged per
// epoch. FinalLoss is the accuracy proxy the strategies are compared on:
// every cell starts from identical weights and trains the same number of
// epochs, so a higher loss means the estimator's gradient noise (or its
// dropped computation) cost convergence. One caveat: saint's loss reads
// ≈frac× the other strategies' — its dropped train rows leave the numerator
// but the denominator stays the global train count (the strategy's
// fixed-expected-fraction estimator) — so compare saint cells across k and
// arch, not level against bns/ladies.
type samplerResult struct {
	Sampler   string  `json:"sampler"`
	Arch      string  `json:"arch"`
	K         int     `json:"k"`
	SampleMS  float64 `json:"sample_ms"`
	ComputeMS float64 `json:"compute_ms"`
	ExposedMS float64 `json:"exposed_comm_ms"`
	ReduceMS  float64 `json:"reduce_ms"`
	TotalMS   float64 `json:"total_ms"`
	CommBytes int64   `json:"comm_bytes_per_epoch"`
	AvgLoss   float64 `json:"avg_loss"`
	FinalLoss float64 `json:"final_loss"`
}

// samplersReport is the BENCH_samplers.json shape.
type samplersReport struct {
	Workload  string          `json:"workload"`
	P         float64         `json:"bns_p"`
	Budget    int             `json:"ladies_budget"`
	Frac      float64         `json:"saint_frac"`
	Layers    int             `json:"layers"`
	Hidden    int             `json:"hidden"`
	Epochs    int             `json:"epochs"`
	GoMaxProc int             `json:"gomaxprocs"`
	Results   []samplerResult `json:"results"`
	// CommReduction is 1 − bytes(strategy)/bytes(bns) per (arch, k) for the
	// strategies that modulate the halo differently from BNS.
	CommReduction map[string]float64 `json:"comm_reduction_vs_bns"`
}

// runSamplers trains the bundled synthetic Reddit workload with each epoch
// sampling strategy — the paper's boundary-node sampling, partition-local
// LADIES-style layer-wise importance sampling, and GraphSAINT-style subgraph
// sampling — over both architectures and k ∈ {2, 4}, all hosted on the same
// pipelined engine (arrival-order drain, channel transport). Reported per
// cell: the epoch time split, halo traffic, and the loss reached from a
// shared initialization — the three axes a strategy trades between.
func runSamplers(w io.Writer, o Options) error {
	o = o.withDefaults()
	spec := redditSpec()
	const (
		p      = 0.1
		budget = 256
		frac   = 0.5
	)
	epochs := o.epochs(40)
	warmup := 2
	if o.Quick {
		warmup = 1
	}

	ds, err := dataset(spec, o)
	if err != nil {
		return err
	}

	report := samplersReport{
		Workload: ds.Name, P: p, Budget: budget, Frac: frac,
		Layers: spec.model.Layers, Hidden: spec.model.Hidden,
		Epochs: epochs, GoMaxProc: runtime.GOMAXPROCS(0),
		CommReduction: map[string]float64{},
	}

	strategies := []struct {
		name    string
		factory core.StrategyFactory
	}{
		{"bns", nil}, // engine default: boundary-node sampling at rate p
		{"ladies", core.NewLADIESFactory(budget, o.Seed+1)},
		{"saint", core.NewSAINTFactory(frac, o.Seed+1)},
	}

	fmt.Fprintf(w, "workload %s: %d nodes, %d layers × %d hidden, %d epochs (+%d warm-up)\n",
		ds.Name, ds.G.N, spec.model.Layers, spec.model.Hidden, epochs, warmup)
	fmt.Fprintf(w, "bns p=%.2g, ladies budget=%d slots/rank, saint frac=%.2g\n\n", p, budget, frac)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "arch\tk\tsampler\tsample\tcompute\tcomm(exposed)\treduce\ttotal/epoch\tcomm bytes\tfinal loss")

	for _, arch := range []core.Arch{core.ArchSAGE, core.ArchGAT} {
		for _, k := range []int{2, 4} {
			topo, err := topology(ds, k, "metis", o.Seed)
			if err != nil {
				return err
			}
			bnsBytes := int64(0)
			for _, st := range strategies {
				mc := spec.model
				mc.Arch = arch
				mc.Seed = o.Seed
				cfg := core.ParallelConfig{Model: mc, P: p, SampleSeed: o.Seed + 1, Strategy: st.factory}
				tr, err := core.NewParallelTrainer(ds, topo, cfg)
				if err != nil {
					return err
				}
				for i := 0; i < warmup; i++ {
					tr.TrainEpoch()
				}
				var agg core.EpochStats
				var lastLoss float64
				for e := 0; e < epochs; e++ {
					est := tr.TrainEpoch()
					addEpochStats(&agg, est)
					lastLoss = est.Loss
				}
				avgEpochStats(&agg, epochs)
				res := samplerResult{
					Sampler: st.name, Arch: string(arch), K: k,
					SampleMS:  ms(agg.SampleTime),
					ComputeMS: ms(agg.ComputeTime),
					ExposedMS: ms(agg.ExposedCommTime),
					ReduceMS:  ms(agg.ReduceTime),
					CommBytes: agg.CommBytes,
					AvgLoss:   agg.Loss,
					FinalLoss: lastLoss,
				}
				res.TotalMS = res.SampleMS + res.ComputeMS + res.ExposedMS + res.ReduceMS
				report.Results = append(report.Results, res)
				if st.name == "bns" {
					bnsBytes = res.CommBytes
				} else if bnsBytes > 0 {
					key := fmt.Sprintf("%s/%s/k=%d", st.name, arch, k)
					report.CommReduction[key] = 1 - float64(res.CommBytes)/float64(bnsBytes)
				}
				fmt.Fprintf(tw, "%s\t%d\t%s\t%.2fms\t%.2fms\t%.2fms\t%.2fms\t%.2fms\t%d\t%.4f\n",
					arch, k, st.name, res.SampleMS, res.ComputeMS, res.ExposedMS, res.ReduceMS, res.TotalMS, res.CommBytes, res.FinalLoss)
			}
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
	for _, res := range report.Results {
		if res.Sampler == "bns" {
			continue
		}
		key := fmt.Sprintf("%s/%s/k=%d", res.Sampler, res.Arch, res.K)
		fmt.Fprintf(w, "%s: %+.0f%% halo traffic vs bns\n", key, -100*report.CommReduction[key])
	}

	if o.OutPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.OutPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", o.OutPath)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
