// Command bnsgcn trains a GCN with BNS-GCN partition-parallel training on a
// generated dataset and reports per-epoch statistics and final test score.
//
// By default the k partitions run as goroutines in one process over the
// channel transport. With -rendezvous the same protocol runs across OS
// processes over the TCP transport — one process per partition — which is
// bit-identical to the in-process run (the cross-backend tests in
// internal/core pin this):
//
//	bnsgcn -dataset reddit -k 8 -p 0.1 -epochs 100
//	bnsgcn -dataset yelp -k 10 -p 0.01 -arch sage -layers 4 -hidden 32
//
//	# multi-process on one machine: spawn 4 workers over loopback
//	bnsgcn -dataset reddit -p 0.1 -world 4 -rendezvous 127.0.0.1:29500 -spawn
//
//	# or launch each rank yourself (possibly on different machines):
//	bnsgcn -dataset reddit -p 0.1 -world 4 -rendezvous host0:29500 -rank 0 &
//	bnsgcn -dataset reddit -p 0.1 -world 4 -rendezvous host0:29500 -rank 1 &
//	...
//
// With -checkpoint-dir the multi-process run becomes elastic: rank 0 writes
// one atomic checkpoint file per generation every -checkpoint-every epochs,
// a SIGKILLed rank's survivors re-rendezvous (any rank can serve, not just
// rank 0) and resume from the newest generation every rank can see, and a
// replacement process started with -join in the dead rank's slot is
// re-admitted and loads the same file. Final weights are bit-identical to an
// uninterrupted run:
//
//	# elastic: 4 local workers, checkpoint every 5 epochs
//	bnsgcn -dataset reddit -p 0.1 -world 4 -checkpoint-dir /tmp/ckpt -spawn
//
//	# after rank 2 dies, re-admit a replacement into its slot:
//	bnsgcn -dataset reddit -p 0.1 -world 4 -checkpoint-dir /tmp/ckpt -rank 2 -join
//
// Multi-host elastic runs list one rendezvous candidate per rank in a hosts
// file (-hosts, one host[:port] per line) and set -listen-host to the
// rank's externally reachable address.
//
// Every rank regenerates the dataset and partitioning from the shared seed,
// so no input files need distributing; ranks only exchange boundary
// features, gradients, and the weight AllReduce.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/elastic"
	"repro/internal/partition"
)

// tagLoss is the AllReduce tag the CLI uses to aggregate the display loss
// across ranks; it sits far above the training protocol's tag range.
const tagLoss = 5000

func main() {
	var (
		dsName = flag.String("dataset", "reddit", "dataset: reddit, products, yelp")
		k      = flag.Int("k", 4, "number of partitions (simulated GPUs) of an in-process run; a multi-process run has -world")
		p      = flag.Float64("p", 0.1, "boundary node sampling rate in [0,1] (bns sampler)")

		samplerName   = flag.String("sampler", "bns", "epoch sampling strategy: bns (paper's boundary-node sampling at rate -p) or ladies (partition-local layer-wise importance sampling, see -sampler-budget)")
		samplerBudget = flag.Int("sampler-budget", 64, "ladies: expected boundary slots kept per rank per epoch (0 = keep all)")
		method        = flag.String("partitioner", "metis", "metis or random")
		arch          = flag.String("arch", "sage", "model: sage or gat")
		layers        = flag.Int("layers", 0, "model depth (0 = paper default for dataset)")
		hidden        = flag.Int("hidden", 32, "hidden units")
		epochs        = flag.Int("epochs", 100, "training epochs")
		lr            = flag.Float64("lr", 0, "learning rate (0 = paper default)")
		dropout       = flag.Float64("dropout", -1, "dropout rate (-1 = paper default)")
		scale         = flag.Int("scale", 1, "dataset scale multiplier")
		seed          = flag.Uint64("seed", 1, "master seed")
		every         = flag.Int("eval-every", 10, "evaluate test score every N epochs (0 = end only)")

		rank  = flag.Int("rank", -1, "this process's rank in a multi-process run (requires -rendezvous or -checkpoint-dir)")
		world = flag.Int("world", 0, "ranks in a multi-process run = partition count (requires -rendezvous or -checkpoint-dir)")
		rdv   = flag.String("rendezvous", "", "host:port rank 0 serves during bootstrap; enables the TCP transport")
		spawn = flag.Bool("spawn", false, "launch -world local worker processes (one per partition) and wait")

		ckptDir     = flag.String("checkpoint-dir", "", "checkpoint directory; enables elastic fault-tolerant training (requires -world; every rank and any -join replacement must see the same directory)")
		ckptEvery   = flag.Int("checkpoint-every", 5, "checkpoint cadence in epochs for elastic training")
		ckptKeep    = flag.Int("checkpoint-keep", 3, "checkpoint generations retained, two at the least (older ones are pruned after each save; the cohort's agreed resume generation is always kept; 0 = keep everything)")
		join        = flag.Bool("join", false, "re-admit this process into a dead rank's slot of a running cohort: the replacement probes every rendezvous candidate (a shrunken cohort answers on its lowest live slot), then resumes the -rank given like any survivor, from the cohort's generation file in the shared -checkpoint-dir")
		hostsFile   = flag.String("hosts", "", "file with one rendezvous candidate per rank, host or host:port per line (# comments ok); default: loopback ports 29500+rank")
		listenHost  = flag.String("listen-host", "", "interface data listeners bind and advertise (default 127.0.0.1; multi-host runs must set this rank's reachable address)")
		hbEvery     = flag.Duration("heartbeat-interval", 2*time.Second, "TCP heartbeat cadence for wedged-peer detection in elastic runs (0 disables; only closed connections are then detected)")
		hbTimeout   = flag.Duration("heartbeat-timeout", 0, "silence after which a peer is declared wedged (0 = 4x heartbeat-interval)")
		maxRecover  = flag.Int("max-recoveries", 5, "peer deaths an elastic rank absorbs before giving up")
		resizeAfter = flag.Int("resize-after", 0, "elastic: after this many stable incomplete rendezvous rounds, the surviving ranks (at least two) elect a smaller world, repartition the dead ranks' nodes among themselves, and train on — instead of waiting for a replacement forever (0 = wait forever, the default). A later -join replacement grows the world back")
	)
	flag.Parse()

	// set holds the flags the command line named, as opposed to defaults.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkModeFlags(*rank, *world, *spawn, *join, *rdv, *ckptDir, set); err != nil {
		fatal(err)
	}
	// The strategy is rebuilt from flags on every process, so distributed and
	// elastic ranks (including -join replacements) agree on it by
	// construction, exactly like the dataset and partitioning.
	strategy, samplerDesc, err := samplerFromFlags(*samplerName, set, *p, *samplerBudget)
	if err != nil {
		fatal(err)
	}
	pl, err := newPlan(*dsName, *method, *scale, core.ParallelConfig{
		Model: core.ModelConfig{
			Arch: core.Arch(*arch), Layers: *layers, Hidden: *hidden,
			Dropout: float32(*dropout), LR: float32(*lr), Seed: *seed,
		},
		P: *p, SampleSeed: *seed + 1, Strategy: strategy, Budget: *samplerBudget,
	}, elastic.Config{
		Dir: *ckptDir, Every: *ckptEvery, Epochs: *epochs, MaxRecoveries: *maxRecover,
		KeepGenerations: *ckptKeep, ResizeAfter: *resizeAfter,
	})
	if err != nil {
		fatal(err)
	}
	pcfg, mc := pl.pcfg, pl.pcfg.Model
	elasticMode := *ckptDir != ""
	distributed := *rdv != "" || elasticMode
	if distributed {
		*k = *world // one partition per process
		if *spawn {
			os.Exit(spawnWorkers(*world))
		}
	}
	var cands []string
	if elasticMode {
		var err error
		if cands, err = rendezvousCandidates(*hostsFile, *world); err != nil {
			fatal(err)
		}
	}

	logf := func(format string, args ...any) { fmt.Printf(format, args...) }
	if distributed && *rank != 0 {
		logf = func(string, ...any) {} // only rank 0 narrates
	}

	logf("generating %s (scale %d)...\n", pl.data.Name, *scale)
	ds, err := datagen.Generate(pl.data)
	if err != nil {
		fatal(err)
	}
	logf("graph: %d nodes, %d edges; %d classes\n", ds.G.N, ds.G.NumEdges(), ds.NumClasses)

	parts, err := pl.pt.Partition(ds.G, *k)
	if err != nil {
		fatal(err)
	}
	topo, err := core.BuildTopology(ds.G, parts, *k)
	if err != nil {
		fatal(err)
	}
	logf("partitioned with %s into %d parts; communication volume %d boundary nodes\n",
		pl.pt.Name(), *k, topo.CommVolume())

	if distributed {
		prog := progress{rank: *rank, every: *every, epochs: *epochs, valMask: ds.ValMask, testMask: ds.TestMask}
		if elasticMode {
			if *join {
				fmt.Printf("rank %d rejoining elastic cohort from %s\n", *rank, *ckptDir)
			}
			logf("training %s (%d layers, %d hidden) for %d epochs %s on %d elastic processes over TCP (checkpoints every %d epochs in %s)\n\n",
				mc.Arch, mc.Layers, mc.Hidden, *epochs, samplerDesc, *world, *ckptEvery, *ckptDir)
			trainElastic(ds, parts, topo, pcfg, elastic.RunnerConfig{
				Config: pl.elastic, Rank: *rank, World: *world, Candidates: cands, ListenHost: *listenHost,
				HeartbeatInterval: *hbEvery, HeartbeatTimeout: *hbTimeout,
				Rejoin: *join,
			}, prog)
			return
		}
		logf("training %s (%d layers, %d hidden) for %d epochs %s on %d processes over TCP\n\n",
			mc.Arch, mc.Layers, mc.Hidden, *epochs, samplerDesc, *world)
		trainDistributed(ds, topo, pcfg, *world, *rdv, *listenHost, prog)
		return
	}

	tr, err := core.NewParallelTrainer(ds, topo, pcfg)
	if err != nil {
		fatal(err)
	}
	logf("training %s (%d layers, %d hidden) for %d epochs %s on %d workers\n\n",
		mc.Arch, mc.Layers, mc.Hidden, *epochs, samplerDesc, *k)
	for e := 1; e <= *epochs; e++ {
		st := tr.TrainEpoch()
		if *every > 0 && e%*every == 0 {
			epochLine(e, st.Loss, st.TotalTime(), st.SampleTime, st.CommTime, st.ExposedCommTime, st.ReduceTime,
				tr.Evaluate(ds.TestMask))
		}
	}
	fmt.Printf("\nfinal: val %.4f  test %.4f\n", tr.Evaluate(ds.ValMask), tr.Evaluate(ds.TestMask))
}

// plan is what a run is made of, built from the flags before any work: the
// dataset to generate, the partitioner, the training configuration and, for
// an elastic run, the elastic one.
type plan struct {
	data    datagen.Config
	pt      partition.Partitioner
	pcfg    core.ParallelConfig
	elastic elastic.Config
}

// newPlan builds and checks the plan of a run on dataset dsName at scale,
// partitioned by method, training with pcfg — elastically with ecfg when it
// names a checkpoint directory: a zero pcfg.Model.Layers or LR and a negative
// Dropout take the dataset's paper defaults, and pcfg.Model.Seed is the
// master seed. It generates nothing, so a bad value costs no dataset,
// partition or worker process.
func newPlan(dsName, method string, scale int, pcfg core.ParallelConfig, ecfg elastic.Config) (plan, error) {
	var pl plan
	var defLayers int
	var defLR, defDrop float64 // rounded to float32 as the flags' values are
	seed := pcfg.Model.Seed
	switch dsName {
	case "reddit":
		pl.data, defLayers, defLR, defDrop = datagen.RedditSim(scale, seed), 4, 0.01, 0.5
	case "products":
		pl.data, defLayers, defLR, defDrop = datagen.ProductsSim(scale, seed), 3, 0.003, 0.3
	case "yelp":
		pl.data, defLayers, defLR, defDrop = datagen.YelpSim(scale, seed), 4, 0.001, 0.1
	default:
		return plan{}, fmt.Errorf("unknown dataset %q", dsName)
	}
	switch method {
	case "metis":
		pl.pt = &partition.Metis{Seed: seed}
	case "random":
		pl.pt = &partition.Random{Seed: seed}
	default:
		return plan{}, fmt.Errorf("unknown partitioner %q", method)
	}
	m := &pcfg.Model
	if m.Layers == 0 {
		m.Layers = defLayers
	}
	if m.LR == 0 {
		m.LR = float32(defLR)
	}
	if m.Dropout < 0 {
		m.Dropout = float32(defDrop)
	}
	if err := pcfg.Validate(); err != nil {
		return plan{}, err
	}
	if ecfg.Dir != "" {
		if err := ecfg.Validate(); err != nil {
			return plan{}, err
		}
	}
	pl.pcfg, pl.elastic = pcfg, ecfg
	return pl, nil
}

// epochLine prints the progress line of all three modes. In-process the times
// are the slowest rank's; in a multi-process run, where no process sees
// another's clock, they are rank 0's own. The loss and the test score are
// global either way.
func epochLine(e int, loss float64, total, sample, comm, exposed, reduce time.Duration, test float64) {
	fmt.Printf("epoch %4d  loss %.4f  epoch time %8s  (sample %s, comm %s exposed %s, reduce %s)  test %.4f\n",
		e, loss, total.Round(1e5), sample.Round(1e5), comm.Round(1e5), exposed.Round(1e5), reduce.Round(1e5), test)
}

// progress is what every rank of a multi-process run does between epochs:
// evaluation and the display loss are collectives, so all ranks take part at
// the -eval-every cadence and after the last epoch, while the transport is
// still up, and rank 0 prints. It holds the two masks and not the dataset.
type progress struct {
	rank, every, epochs int
	valMask, testMask   []bool
	scored              bool // the last epoch's hook ran and set val and test
	val, test           float64
}

// afterEpoch is the hook, in the shape elastic.EpochHook wants.
func (p *progress) afterEpoch(rt *core.RankTrainer, w *comm.Worker, st core.RankStats) error {
	e := rt.Epoch()
	atCadence, last := p.every > 0 && e%p.every == 0, e == p.epochs
	if !atCadence && !last {
		return nil
	}
	test, err := rt.Evaluate(w, p.testMask)
	if err != nil {
		return err
	}
	if atCadence {
		// Each rank has its share of the loss; sum them for display.
		loss := []float32{float32(st.Loss)}
		w.AllReduceSum(loss, tagLoss)
		if p.rank == 0 {
			epochLine(e, float64(loss[0]), st.Sample+st.Compute+st.CommExposed+st.Reduce,
				st.Sample, st.Comm, st.CommExposed, st.Reduce, test)
		}
	}
	if last {
		p.test = test
		if p.val, err = rt.Evaluate(w, p.valMask); err != nil {
			return err
		}
		p.scored = true
	}
	return nil
}

// printFinal is rank 0's last line.
func (p *progress) printFinal() {
	switch {
	case p.rank != 0:
	case p.scored:
		fmt.Printf("\nfinal: val %.4f  test %.4f\n", p.val, p.test)
	default: // -epochs 0, or an elastic process that joined a finished cohort
		fmt.Println("\nfinal: no epoch ran in this process, so nothing was scored")
	}
}

// checkModeFlags validates the flags that choose between in-process training
// (-k partitions over the channel transport) and a multi-process run (-world
// ranks over TCP, selected by -rendezvous, or elastic, selected by
// -checkpoint-dir). A flag the chosen mode never reads is rejected rather than
// ignored: `bnsgcn -world 8` would otherwise train in-process at the -k
// default. set holds the flags the command line named, so a default is never
// mistaken for a request.
func checkModeFlags(rank, world int, spawn, join bool, rdv, ckptDir string, set map[string]bool) error {
	elasticMode := ckptDir != ""
	if join && !elasticMode {
		return fmt.Errorf("-join requires -checkpoint-dir: a replacement resumes from the cohort's shared checkpoints")
	}
	if elasticMode && rdv != "" {
		return fmt.Errorf("-checkpoint-dir and -rendezvous are mutually exclusive: elastic runs use the per-rank candidate rendezvous (-hosts), which survives rank 0's death")
	}
	mode := "an in-process run"
	switch {
	case elasticMode:
		mode = "an elastic run"
	case rdv != "":
		mode = "a -rendezvous run"
	}
	if !elasticMode {
		for _, f := range []string{"checkpoint-every", "checkpoint-keep", "hosts", "heartbeat-interval", "heartbeat-timeout", "max-recoveries", "resize-after"} {
			if set[f] {
				return fmt.Errorf("-%s is set but %s never reads it, so it would be ignored: it configures elastic training, which -checkpoint-dir selects", f, mode)
			}
		}
	}
	if set["listen-host"] && !elasticMode && rdv == "" {
		return fmt.Errorf("-listen-host is set but %s never reads it, so it would be ignored: it is the address a multi-process rank listens on (-rendezvous or -checkpoint-dir)", mode)
	}
	if set["k"] && (elasticMode || rdv != "") {
		return fmt.Errorf("-k is set but %s never reads it, so it would be ignored: a multi-process run has one partition per rank, -world of them; drop -k", mode)
	}
	if !elasticMode && rdv == "" {
		given := ""
		switch {
		case world != 0:
			given = fmt.Sprintf("-world %d", world)
		case rank != -1:
			given = fmt.Sprintf("-rank %d", rank)
		case spawn:
			given = "-spawn"
		}
		if given != "" {
			return fmt.Errorf("%s selects a multi-process run but neither -rendezvous (TCP) nor -checkpoint-dir (elastic) is set, so it would be ignored and training would run in-process at -k partitions: add one of them, or use -k for in-process partitions", given)
		}
		return nil
	}
	if world < 1 {
		return fmt.Errorf("multi-process training requires -world >= 1, got %d", world)
	}
	if !spawn && (rank < 0 || rank >= world) {
		return fmt.Errorf("-rank %d outside [0,%d); pass -spawn to launch all ranks", rank, world)
	}
	return nil
}

// samplerFromFlags maps -sampler and the parameter flags to the engine's
// strategy and the banner's description of what runs. Each sampler reads exactly one of -p and
// -sampler-budget; the other given explicitly (set holds the flags the
// command line named) is rejected rather than ignored, and the sampler's own
// parameter must be in range.
func samplerFromFlags(name string, set map[string]bool, p float64, budget int) (core.Strategy, string, error) {
	params := map[string]string{"bns": "p", "ladies": "sampler-budget"}
	own, ok := params[name]
	if !ok {
		return 0, "", fmt.Errorf("unknown -sampler %q (want bns or ladies)", name)
	}
	for sampler, other := range params {
		if other != own && set[other] {
			return 0, "", fmt.Errorf("-%s is set but -sampler %s never reads it, so it would be ignored: %s is parameterised by -%s; drop -%s, or run the sampler it belongs to (-sampler %s)",
				other, name, name, own, other, sampler)
		}
	}
	if name == "ladies" {
		if budget < 0 {
			return 0, "", fmt.Errorf("-sampler-budget %d is negative: give the expected number of boundary slots kept per rank per epoch (0 keeps all)", budget)
		}
		return core.LADIES, fmt.Sprintf("under partition-local LADIES at an expected budget of %d boundary slots per rank", budget), nil
	}
	return core.BNS, fmt.Sprintf("at p=%.2g", p), nil
}

// rendezvousCandidates builds the per-rank elastic rendezvous candidate
// list: from a hosts file (one host or host:port per line, # comments and
// blank lines skipped) or, absent one, loopback ports 29500+rank. Lines
// without a port get 29500+rank so a plain list of hostnames works. Every
// candidate must be distinct — two ranks sharing one would fight over the
// same rendezvous address and wedge the cohort — so duplicates and
// malformed entries are rejected up front, naming the offending lines.
func rendezvousCandidates(hostsFile string, world int) ([]string, error) {
	const basePort = 29500
	if hostsFile == "" {
		return elastic.LoopbackCandidates("127.0.0.1", basePort, world), nil
	}
	data, err := os.ReadFile(hostsFile)
	if err != nil {
		return nil, fmt.Errorf("-hosts: %w", err)
	}
	type entry struct {
		raw  string
		line int // 1-based line number in the file
	}
	var hosts []entry
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		hosts = append(hosts, entry{raw: line, line: i + 1})
	}
	if len(hosts) != world {
		return nil, fmt.Errorf("-hosts %s lists %d ranks, -world is %d", hostsFile, len(hosts), world)
	}
	out := make([]string, world)
	seen := make(map[string]entry, world)
	for r, h := range hosts {
		addr := h.raw
		if !strings.Contains(addr, ":") {
			addr = net.JoinHostPort(addr, strconv.Itoa(basePort+r))
		} else if _, _, err := net.SplitHostPort(addr); err != nil {
			return nil, fmt.Errorf("-hosts %s line %d: %q is not a host or host:port (IPv6 addresses need [brackets]): %v",
				hostsFile, h.line, h.raw, err)
		}
		key := strings.ToLower(addr)
		if first, dup := seen[key]; dup {
			return nil, fmt.Errorf("-hosts %s line %d (%q) conflicts with line %d (%q): both resolve to rendezvous candidate %s, but every rank needs its own — a shared candidate wedges the cohort at rendezvous",
				hostsFile, h.line, h.raw, first.line, first.raw, addr)
		}
		seen[key] = h
		out[r] = addr
	}
	return out, nil
}

// trainElastic runs this process's single rank under the elastic recovery
// loop: periodic atomic checkpoints, peer-death detection, re-rendezvous,
// and resume — bit-identical to an uninterrupted run. With -resize-after, a
// permanently lost peer shrinks the world instead of wedging it, and a -join
// replacement later grows it back; elastic.MemberTrainerFactory lays out the
// partitions of either world.
func trainElastic(ds *datagen.Dataset, parts []int32, topo *core.Topology, pcfg core.ParallelConfig,
	rc elastic.RunnerConfig, prog progress) {
	rank := rc.Rank
	rc.NewTrainer = elastic.MemberTrainerFactory(ds, parts, topo, pcfg, rc.World)
	rc.OnEpoch = prog.afterEpoch
	_, rep, err := elastic.Run(rc)
	if err != nil {
		fatal(err)
	}
	if rep.Recoveries > 0 {
		fmt.Printf("rank %d absorbed %d peer death(s); resumed from generation(s) %v\n",
			rank, rep.Recoveries, rep.StartGens[1:])
	}
	for _, m := range rep.Worlds {
		if len(m) < rc.World {
			fmt.Printf("rank %d trained part of the run on a shrunken world of %d (members %v)\n", rank, len(m), m)
		}
	}
	prog.printFinal()
}

// trainDistributed runs this process's single rank over the TCP transport.
// Once the trainer is built nothing here refers to the dataset or the
// topology: the process holds its partition and prog's two masks.
func trainDistributed(ds *datagen.Dataset, topo *core.Topology, pcfg core.ParallelConfig,
	world int, rdv, listenHost string, prog progress) {
	rank := prog.rank
	rt, err := core.NewRankTrainer(ds, topo, pcfg, rank)
	if err != nil {
		fatal(err)
	}
	tp, err := comm.DialTCP(comm.TCPConfig{Rank: rank, World: world, Rendezvous: rdv, ListenHost: listenHost})
	if err != nil {
		fatal(err)
	}
	w := comm.NewWorker(tp)
	for e := 1; e <= prog.epochs; e++ {
		st, err := rt.TrainEpoch(w)
		if err == nil {
			err = prog.afterEpoch(rt, w, st)
		}
		if err != nil {
			fatal(err)
		}
	}
	w.Barrier()
	prog.printFinal()
	if rank == 0 {
		// Payload bytes count every halo row moved, the evaluations' too.
		fmt.Printf("rank %d sent %d payload bytes in %d messages (%d bytes on the wire)\n",
			rank, tp.BytesSent(), tp.MessagesSent(), tp.WireBytesSent())
	}
	if err := tp.Close(); err != nil {
		fatal(err)
	}
}

// spawnWorkers re-execs this binary once per rank with the same flags plus
// -rank, prefixes each child's output with its rank, and waits for all.
func spawnWorkers(world int) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	var base []string
	for _, a := range os.Args[1:] {
		s := strings.TrimLeft(a, "-")
		if s == "spawn" || strings.HasPrefix(s, "spawn=") || strings.HasPrefix(s, "rank=") {
			continue
		}
		base = append(base, a)
	}
	cmds := make([]*exec.Cmd, world)
	drained := make([]chan struct{}, world)
	for r := 0; r < world; r++ {
		cmd := exec.Command(exe, append(append([]string{}, base...), fmt.Sprintf("-rank=%d", r))...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			fatal(err)
		}
		cmd.Stderr = cmd.Stdout
		drained[r] = make(chan struct{})
		go func(r int) {
			defer close(drained[r])
			prefixLines(stdout, fmt.Sprintf("[rank %d] ", r))
		}(r)
		if err := cmd.Start(); err != nil {
			fatal(err)
		}
		cmds[r] = cmd
	}
	status := 0
	for r, cmd := range cmds {
		// Wait closes the pipe; read everything first or tail output is lost.
		<-drained[r]
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "bnsgcn: rank %d: %v\n", r, err)
			status = 1
		}
	}
	return status
}

func prefixLines(r io.Reader, prefix string) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			fmt.Println(prefix + line)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bnsgcn:", err)
	os.Exit(1)
}
