package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
)

// spec is one named workload. The names are fixed: BENCHMARK.json lists them
// with the reason each exists, and later issues cite them. k is part of the
// workload, never derived from the box, so numbers compare across machines.
type spec struct {
	name   string
	serve  bool // the inference server under a request mix, not the trainer
	nodes  int
	avgDeg float64
	k      int
	p      float64 // boundary sampling rate; 1 = vanilla partition parallelism
	tcp    bool    // loopback comm.DialTCP mesh instead of the channel cluster
	model  core.ModelConfig
	// accFloor is the test accuracy a full-length run must reach after
	// sizing.accEpochs epochs: well under what every seed tried reaches, far
	// above a model that stopped learning.
	accFloor float64
}

func sage3x64() core.ModelConfig {
	return core.ModelConfig{Arch: core.ArchSAGE, Layers: 3, Hidden: 64, Dropout: 0.2, LR: 0.01}
}

var specs = []spec{
	{name: "k1-dense", nodes: 12000, avgDeg: 96, k: 1, p: 1, model: sage3x64(), accFloor: 0.97},
	{name: "k4-full-tcp", nodes: 16000, avgDeg: 24, k: 4, p: 1, tcp: true, model: sage3x64(), accFloor: 0.94},
	{name: "k4-bns-tcp", nodes: 16000, avgDeg: 24, k: 4, p: 0.1, tcp: true, model: sage3x64(), accFloor: 0.93},
	// At the SAGE workloads' learning rate a GAT is still mid-climb after
	// accEpochs epochs and its accuracy swings 0.69–0.88 with the seed; 0.04
	// puts every seed on the plateau (0.97–0.98), where a floor means something.
	{name: "k2-gat-chan", nodes: 24000, avgDeg: 24, k: 2, p: 0.1,
		model:    core.ModelConfig{Arch: core.ArchGAT, Layers: 2, Hidden: 32, Dropout: 0.2, LR: 0.04},
		accFloor: 0.92},
	{name: "serve-mixed", serve: true, nodes: 20000, avgDeg: 24, k: 1, p: 1, model: sage3x64(), accFloor: 0.88},
}

func findSpec(name string) (spec, int, error) {
	for i, s := range specs {
		if s.name == name {
			return s, i, nil
		}
	}
	return spec{}, 0, fmt.Errorf("unknown workload %q", name)
}

// sizing is everything about a run's length that is not the workload's shape.
type sizing struct {
	quick   bool
	seconds float64 // measured time of the untraced pass
	setups  int     // set-up repetitions; setup_s is their median
	warmup  int     // untimed epochs that end set-up
	// accEpochs is both the least number of timed epochs and the epoch after
	// which test accuracy is read. A fixed count keeps loss and accuracy
	// exact per seed however fast the box is.
	accEpochs    int
	tracedEpochs int
	replayBudget float64 // seconds per layer replay

	serveSetups      int // a server's set-up is a third of a second: more repetitions for a steady median
	serveTrainEpochs int // epochs that prepare the served model (an input, not set-up)
	serveCache       int
	serveWarmOps     int // per client, ends set-up with a filled cache
	serveTracedOps   int // per client
	serveQuickOps    int // per client; quick runs count operations, not seconds
}

func fullSizing(seconds float64) sizing {
	return sizing{
		seconds: seconds, setups: 3, warmup: 5, accEpochs: 60, tracedEpochs: 20, replayBudget: 0.15,
		serveSetups: 5, serveTrainEpochs: 40, serveCache: 2000, serveWarmOps: 2000, serveTracedOps: 20000,
	}
}

// quickSizing is the smoke-test shape: ≈1,500-node graphs, 3 epochs, 2,000
// operations. Its numbers mean nothing; it exists so tier-1 can run every
// workload and every check that does not need a converged model.
func quickSizing() sizing {
	return sizing{
		quick: true, setups: 1, warmup: 1, accEpochs: 3, tracedEpochs: 2, replayBudget: 0.002,
		serveSetups: 1, serveTrainEpochs: 2, serveCache: 150, serveWarmOps: 100, serveTracedOps: 500, serveQuickOps: 1000,
	}
}

// Seeds: one -seed drives every random input, each through its own stream.
func datasetSeed(seed uint64) uint64   { return seed }
func partitionSeed(seed uint64) uint64 { return seed + 1 }
func modelSeed(seed uint64) uint64     { return seed + 2 }
func samplingSeed(seed uint64) uint64  { return seed + 3 }
func requestSeed(seed uint64) uint64   { return seed + 4 }

// servedGraphSeed fixes the graph serve-mixed serves: to a server the graph
// is a fixture, and -seed draws the model and the traffic. With degree skew
// 2.0 a few hubs decide how many rows an update recomputes (865–1,437 on
// average, over five graphs), updates are over half of the server's work, and
// so a seeded graph alone spread throughput by 0.13 between seeds. Seed 3's
// graph sits in the middle (1,086 rows).
const servedGraphSeed = 3

// generate builds the workload's reddit-sim-shaped dataset: 32 communities,
// IntraFrac 0.65, DegreeSkew 2.0, FeatureDim 48, 0.66/0.10 split.
func generate(s spec, z sizing, seed uint64) (*datagen.Dataset, error) {
	seed = datasetSeed(seed)
	if s.serve {
		seed = servedGraphSeed
	}
	c := datagen.RedditSim(1, seed)
	c.Nodes = s.nodes
	if z.quick {
		c.Nodes = 1500
	}
	c.AvgDegree = s.avgDeg
	return datagen.Generate(c)
}

type runOpts struct {
	seed   uint64
	trace  bool
	outDir string // where a traced run writes <workload>.trace.json
}

func runWorkload(s spec, id int, z sizing, o runOpts) (*result, error) {
	res := &result{Workload: s.name, Trace: o.trace, Metrics: map[string]float64{}}
	var err error
	if s.serve {
		err = runServe(s, id, z, o, res)
	} else {
		err = runTrain(s, id, z, o, res)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.name, err)
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	return res, nil
}
