package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/partition"
)

// trainEnv is a training workload after set-up: warm, and ready to time.
type trainEnv struct {
	ds    *datagen.Dataset
	topo  *core.Topology
	tr    *core.ParallelTrainer
	setup *stages
}

func (e *trainEnv) close() { e.tr.Cluster.Close() }

// tcpLoopback bootstraps k TCP endpoints over 127.0.0.1 through the same
// rendezvous a multi-process run uses, so halo traffic crosses real sockets
// and the wire codec.
func tcpLoopback(k int) (*comm.Group, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ts := make([]comm.Transport, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := comm.TCPConfig{Rank: r, World: k, Rendezvous: ln.Addr().String(), Timeout: 30 * time.Second}
			if r == 0 {
				cfg.RendezvousListener = ln
			}
			tp, err := comm.DialTCP(cfg)
			if err != nil {
				errs[r] = err
				return
			}
			ts[r] = tp
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, tp := range ts {
				if tp != nil {
					tp.Close()
				}
			}
			return nil, fmt.Errorf("tcp mesh: %w", err)
		}
	}
	return comm.NewGroup(ts), nil
}

// setupTrain is everything a user waits for before the first useful epoch:
// generate → partition → topology → transport and trainers → warm-up.
func setupTrain(s spec, z sizing, seed uint64) (*trainEnv, error) {
	e := &trainEnv{setup: newStages()}
	lap := e.setup.lap

	ds, err := generate(s, z, seed)
	if err != nil {
		return nil, err
	}
	lap("datagen.generate_s")
	parts, err := (&partition.Metis{Seed: partitionSeed(seed)}).Partition(ds.G, s.k)
	if err != nil {
		return nil, err
	}
	lap("partition.metis_s")
	topo, err := core.BuildTopology(ds.G, parts, s.k)
	if err != nil {
		return nil, err
	}
	lap("core.topology_s")

	group := comm.New(s.k, 0)
	if s.tcp {
		if group, err = tcpLoopback(s.k); err != nil {
			return nil, err
		}
	}
	cfg := core.ParallelConfig{Model: s.model, P: s.p, SampleSeed: samplingSeed(seed)}
	cfg.Model.Seed = modelSeed(seed)
	tr, err := core.NewParallelTrainerOver(ds, topo, cfg, group)
	if err != nil {
		group.Close()
		return nil, err
	}
	e.ds, e.topo, e.tr = ds, topo, tr
	lap("core.trainer_build_s")
	for i := 0; i < z.warmup; i++ {
		if _, err := trainEpoch(tr); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up epoch %d: %w", i, err)
		}
	}
	lap("core.warmup_s")
	return e, nil
}

// trainEpoch runs one epoch through the public trainer, which reports a
// failed rank by panicking out of comm.Group.Run.
func trainEpoch(tr *core.ParallelTrainer) (st *core.EpochStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("epoch %d: %v", tr.Epoch(), r)
		}
	}()
	return tr.TrainEpoch(), nil
}

// pass is what one run of timed epochs measured.
type pass struct {
	epochMS   []float64
	epochCPU  []float64 // process CPU time spent inside each epoch, ms
	losses    []float64
	reg       region
	haloBytes float64 // summed over epochs and ranks
	acc       float64 // test accuracy after exactly minEpochs timed epochs
	evalS     float64
	failed    int
}

// timedEpochs runs minEpochs epochs, reads test accuracy outside the measured
// region, and then keeps training until seconds of measured time have passed.
// An epoch that errors or yields a non-finite loss is a failed operation; an
// error also ends the pass, because the transport is gone.
func timedEpochs(e *trainEnv, minEpochs int, seconds float64) *pass {
	ps := &pass{}
	alive := true
	epoch := func() {
		cpu0, t0 := cpuSeconds(), time.Now()
		st, err := trainEpoch(e.tr)
		ps.epochMS = append(ps.epochMS, float64(time.Since(t0).Nanoseconds())/1e6)
		ps.epochCPU = append(ps.epochCPU, (cpuSeconds()-cpu0)*1e3)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ps.failed++
			alive = false
			return
		}
		ps.losses = append(ps.losses, st.Loss)
		ps.haloBytes += float64(st.CommBytes)
		if math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0) {
			ps.failed++
		}
	}
	ps.reg.start()
	for n := 0; alive && n < minEpochs; n++ {
		epoch()
	}
	ps.reg.stop()
	if !alive {
		return ps
	}
	// Collect first: otherwise peak memory depends on where in a GC cycle the
	// evaluation's buffers happen to land, which moves with the seed.
	runtime.GC()
	t0 := time.Now()
	ps.acc = e.tr.Evaluate(e.ds.TestMask)
	ps.evalS = time.Since(t0).Seconds()
	ps.reg.start()
	for alive && ps.reg.elapsed() < seconds {
		epoch()
	}
	ps.reg.stop()
	return ps
}

// fullHaloBytes is the halo traffic of one epoch at p=1, from the topology
// alone: every boundary node's input row crosses once per layer forward, and
// its gradient once per layer but the first backward.
func fullHaloBytes(e *trainEnv) float64 {
	dims := e.tr.Models[0].LayerInputDims()
	perNode := 0
	for l, d := range dims {
		perNode += d
		if l >= 1 {
			perNode += d
		}
	}
	return 4 * float64(perNode) * float64(e.topo.CommVolume())
}

// checkPass applies the output checks every training pass must meet, and the
// two that need a converged model when the pass was long enough to have one.
func checkPass(s spec, e *trainEnv, ps *pass, converged bool, res *result) {
	res.Attempted += len(ps.epochMS)
	res.Failed += ps.failed
	if len(ps.losses) == 0 {
		return
	}
	first, last := ps.losses[0], ps.losses[len(ps.losses)-1]
	if converged {
		res.check(last < first, "final loss %.4f is not below the post-warm-up loss %.4f", last, first)
		res.check(ps.acc >= s.accFloor, "test accuracy %.4f is below the floor %.2f", ps.acc, s.accFloor)
	}
	if full := fullHaloBytes(e); full > 0 {
		ratio := ps.haloBytes / float64(len(ps.losses)) / full
		res.check(ratio >= 0.8*s.p && ratio <= 1.2*s.p,
			"halo bytes per epoch are %.4f of the p=1 volume, want within 20%% of p=%.2f", ratio, s.p)
	}
}

func runTrain(s spec, id int, z sizing, o runOpts, res *result) error {
	setups := z.setups
	if o.trace {
		setups = 1
	}
	var env *trainEnv
	var setupS []float64
	for i := 0; i < setups; i++ {
		if env != nil {
			// Drop the previous set-up before building the next, so peak
			// memory is one trainer's, not the repetitions' sum.
			env.close()
			env = nil
			runtime.GC()
		}
		var err error
		if env, err = setupTrain(s, z, o.seed); err != nil {
			return err
		}
		setupS = append(setupS, env.setup.total())
	}
	defer env.close()
	if o.trace {
		return traceTrain(s, id, z, o, env, res)
	}

	ps := timedEpochs(env, z.accEpochs, z.seconds)
	checkPass(s, env, ps, !z.quick, res)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	sorted := sortedCopy(ps.epochMS)
	m := res.Metrics
	m["setup_s"] = median(setupS)
	m["op_ms_p25"] = quantile(sorted, 0.25)
	m["cpu_ms_per_op"] = lowerQuartile(ps.epochCPU)
	// The upper quartile of the epochs' throughput: every epoch covers the
	// same nodes, so it is the lower-quartile epoch's.
	m["nodes_per_s"] = float64(env.ds.G.N) / (quantile(sorted, 0.25) / 1e3)
	m["test_acc"] = ps.acc
	m["peak_rss_mb"] = rss
	res.Disturbed = ps.reg.disturbed()
	fmt.Fprintf(os.Stderr, "bench: %s: %d timed epochs in %.2fs (p25 %.1f p50 %.1f p90 %.1f ms), host steal %.4f\n",
		s.name, len(sorted), ps.reg.wall, quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.9), ps.reg.stealFrac())
	return nil
}

// tracedPass is what the epochs driven rank by rank under the recorder measured.
type tracedPass struct {
	epochMS   []float64
	phaseMS   [len(phaseNames)]float64 // per phase: the slowest rank's time, summed over epochs
	rankTotal []float64                // per rank: critical-path time summed over epochs, ms
	haloBytes float64
	reduce    float64 // gradient bytes entering the AllReduce, summed over epochs and ranks
	sampledBd float64
	msgs      float64
	failed    int
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// The phases of a rank's epoch, as per-layer metric names and as RankStats fields.
var phaseNames = [...]string{"core.sample_ms", "core.compute_ms", "core.comm_raw_ms", "core.comm_exposed_ms", "core.reduce_ms"}

func phaseTimes(st *core.RankStats) [len(phaseNames)]time.Duration {
	return [...]time.Duration{st.Sample, st.Compute, st.Comm, st.CommExposed, st.Reduce}
}

// tracedEpochs drives the k rank trainers itself — what ParallelTrainer does
// inside TrainEpoch — so that each rank's epoch is a span under the epoch's
// span, carrying that rank's phase times and byte counts.
func tracedEpochs(e *trainEnv, epochs int, rec *recorder) *tracedPass {
	k := e.topo.K
	tp := &tracedPass{rankTotal: make([]float64, k)}
	stats := make([]core.RankStats, k)
	errs := make([]error, k)
	group := e.tr.Cluster
	msgs0 := int64(0)
	for r := 0; r < k; r++ {
		msgs0 += group.MessagesSent(r)
	}
	for n := 0; n < epochs; n++ {
		t0 := time.Now()
		ep := rec.begin("epoch", -1, 0)
		group.Run(func(w *comm.Worker) {
			r := w.Rank()
			sp := rec.begin("rank_epoch", ep, 1+r)
			stats[r], errs[r] = e.tr.Ranks[r].TrainEpoch(w)
			st := &stats[r]
			rec.end(sp, map[string]float64{
				"rank": float64(r), "loss": st.Loss,
				"sample_ms": ms(st.Sample), "compute_ms": ms(st.Compute),
				"comm_raw_ms": ms(st.Comm), "comm_exposed_ms": ms(st.CommExposed), "reduce_ms": ms(st.Reduce),
				"halo_bytes": float64(st.CommBytes), "reduce_bytes": float64(st.ReduceBytes),
				"sampled_boundary": float64(st.SampledBd),
			})
		})
		rec.end(ep, nil)
		tp.epochMS = append(tp.epochMS, float64(time.Since(t0).Nanoseconds())/1e6)
		for _, err := range errs {
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				tp.failed++
				return tp
			}
		}
		var loss float64
		var slowest [len(phaseNames)]float64
		for r := range stats {
			st := &stats[r]
			loss += st.Loss
			tp.haloBytes += float64(st.CommBytes)
			tp.reduce += float64(st.ReduceBytes)
			tp.sampledBd += float64(st.SampledBd)
			tp.rankTotal[r] += ms(st.Sample + st.Compute + st.CommExposed + st.Reduce)
			for i, d := range phaseTimes(st) {
				slowest[i] = math.Max(slowest[i], ms(d))
			}
		}
		for i, v := range slowest {
			tp.phaseMS[i] += v
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			tp.failed++
		}
	}
	for r := 0; r < k; r++ {
		tp.msgs += float64(group.MessagesSent(r))
	}
	tp.msgs -= float64(msgs0)
	return tp
}

// traceTrain is the traced run: a short untraced pass for the baseline, the
// same number of epochs under the span recorder, then each layer replayed on
// its own under a span. Every number it reports is a per-layer metric.
func traceTrain(s spec, id int, z sizing, o runOpts, env *trainEnv, res *result) error {
	m := res.Metrics
	for name, v := range env.setup.secs {
		m[name] = v
	}
	cut, err := partition.ComputeStats(env.ds.G, env.topo.Parts, s.k)
	if err != nil {
		return err
	}
	m["partition.edge_cut_frac"] = float64(cut.EdgeCut) / float64(env.ds.G.NumEdges())
	for _, r := range env.topo.BoundaryRatios() {
		m["partition.boundary_ratio_max"] = math.Max(m["partition.boundary_ratio_max"], r)
	}
	m["partition.comm_volume_nodes"] = float64(env.topo.CommVolume())

	un := timedEpochs(env, z.tracedEpochs, 0)
	checkPass(s, env, un, false, res)
	if un.failed > 0 {
		return nil
	}
	rec := newRecorder(z.tracedEpochs*(1+s.k) + 64)
	tp := tracedEpochs(env, z.tracedEpochs, rec)
	res.Attempted += len(tp.epochMS)
	res.Failed += tp.failed
	if tp.failed > 0 {
		return nil
	}
	n := float64(len(tp.epochMS))

	for i, name := range phaseNames {
		m[name] = tp.phaseMS[i] / n
	}
	if raw := m["core.comm_raw_ms"]; raw > 0 {
		m["core.overlap_hidden_frac"] = 1 - m["core.comm_exposed_ms"]/raw
	}
	if vol := env.topo.CommVolume(); vol > 0 {
		m["core.sampled_bd_frac"] = tp.sampledBd / n / float64(vol)
	}
	straggler := 0
	for r, t := range tp.rankTotal {
		if t > tp.rankTotal[straggler] {
			straggler = r
		}
	}
	m["core.straggler_ratio"] = tp.rankTotal[straggler] / mean(tp.rankTotal)
	unMS := sortedCopy(un.epochMS)
	m["core.epoch_ms_p90"] = quantile(unMS, 0.9)
	m["core.eval_s"] = un.evalS
	m["core.allocs_per_epoch"] = float64(un.reg.mallocs) / float64(len(un.epochMS))
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["core.live_heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)

	m["comm.halo_bytes_per_epoch"] = tp.haloBytes / n
	m["comm.reduce_bytes_per_epoch"] = tp.reduce / n
	m["comm.msgs_per_epoch"] = tp.msgs / n

	replays := rec.begin("layer_replays", -1, 0)
	if s.k > 1 {
		halo := float64(s.k * (s.k - 1) * (2*s.model.Layers - 1)) // halo messages per epoch
		replayComm(env, rec, replays, z.replayBudget, int(tp.haloBytes/n/4/halo), m)
	}
	if err := replayLayers(s, env, straggler, rec, replays, z.replayBudget, m); err != nil {
		return err
	}
	rec.end(replays, nil)
	if s.k > 1 {
		predictEpoch(s, env, quantile(unMS, 0.5), m)
	}

	m["bench.trace_overhead_frac"] = median(tp.epochMS)/quantile(unMS, 0.5) - 1
	res.Disturbed = hostMetrics(&un.reg, m)

	path, err := rec.write(o.outDir, s.name, id)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %s: wrote %s (%d spans)\n", s.name, path, len(rec.recorded()))
	return nil
}
