package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/datagen"
)

func init() {
	register("overlap", "Epoch engine: exposed comm time, serialized vs overlapped schedule, on bare, delayed and skewed links", runOverlap)
}

// overlapResult is one (transport, schedule) measurement, averaged per
// epoch. Times are milliseconds.
type overlapResult struct {
	Transport  string  `json:"transport"`
	LatencyUS  int     `json:"link_latency_us"`
	Schedule   string  `json:"schedule"`
	Overlap    bool    `json:"overlap"`
	SampleMS   float64 `json:"sample_ms"`
	ComputeMS  float64 `json:"compute_ms"`
	CommMS     float64 `json:"comm_ms"`
	ExposedMS  float64 `json:"exposed_comm_ms"`
	ReduceMS   float64 `json:"reduce_ms"`
	TotalMS    float64 `json:"total_ms"`
	CommBytes  int64   `json:"comm_bytes_per_epoch"`
	FinalLoss  float64 `json:"final_loss"`
	WeightHash string  `json:"weight_hash,omitempty"`
}

// overlapReport is the shape -out writes.
type overlapReport struct {
	Workload  string          `json:"workload"`
	K         int             `json:"k"`
	P         float64         `json:"p"`
	Layers    int             `json:"layers"`
	Hidden    int             `json:"hidden"`
	Epochs    int             `json:"epochs"`
	GoMaxProc int             `json:"gomaxprocs"`
	Results   []overlapResult `json:"results"`
	// ExposedReduction is 1 − exposed(overlap)/exposed(serialized) per link
	// configuration — the fraction of exposed communication time the
	// overlapped schedule hides behind halo-free compute.
	ExposedReduction map[string]float64 `json:"exposed_comm_reduction"`

	// The "+skew" rows run SkewedK ranks over per-link latencies chosen so
	// the lowest-rank peer is always the slowest: the drain completes
	// whichever peer lands first, so the fast peers' dependent rows compute
	// while the slow link is still in flight.
	SkewedK         int      `json:"skewed_k"`
	SkewedLatencies []string `json:"skewed_link_latencies"`
}

// tcpLoopback bootstraps k TCP transports over 127.0.0.1 — the same mesh the
// cross-backend tests use — so the experiment measures real socket traffic.
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
			ts[r], errs[r] = comm.DialTCP(cfg)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Don't leak the ranks that did connect (sockets plus their
			// demux/writer goroutines) for the rest of the bnsbench run.
			for _, tp := range ts {
				if tp != nil {
					tp.Close()
				}
			}
			return nil, err
		}
	}
	return comm.NewGroup(ts), nil
}

// measureSchedule trains one (transport, link, schedule) configuration and
// returns the per-epoch averaged measurement row.
func measureSchedule(ds dsHandle, k int, p float64, sched core.Schedule, backend string,
	wrap func(*comm.Group) *comm.Group, latencyUS, epochs, warmup int, seed uint64) (overlapResult, error) {
	cfg := core.ParallelConfig{Model: ds.model, P: p, SampleSeed: seed + 1, Schedule: sched}
	cfg.Model.Seed = seed
	var g *comm.Group
	var err error
	if backend == "chan" {
		g = comm.New(k, 0)
	} else {
		g, err = tcpLoopback(k)
		if err != nil {
			return overlapResult{}, err
		}
	}
	if wrap != nil {
		g = wrap(g)
	}
	tr, err := core.NewParallelTrainerOver(ds.ds, ds.topo, cfg, g)
	if err != nil {
		return overlapResult{}, err
	}
	for i := 0; i < warmup; i++ {
		tr.TrainEpoch()
	}
	var agg core.EpochStats
	var lastLoss float64
	for e := 0; e < epochs; e++ {
		st := tr.TrainEpoch()
		addEpochStats(&agg, st)
		lastLoss = st.Loss
	}
	g.Close()
	avgEpochStats(&agg, epochs)
	res := overlapResult{
		Schedule:  sched.String(),
		Overlap:   sched != core.ScheduleSerialized,
		LatencyUS: latencyUS,
		SampleMS:  ms(agg.SampleTime),
		ComputeMS: ms(agg.ComputeTime),
		CommMS:    ms(agg.CommTime),
		ExposedMS: ms(agg.ExposedCommTime),
		ReduceMS:  ms(agg.ReduceTime),
		CommBytes: agg.CommBytes,
		FinalLoss: lastLoss,
	}
	res.TotalMS = res.SampleMS + res.ComputeMS + res.ExposedMS + res.ReduceMS
	return res, nil
}

// dsHandle bundles what measureSchedule needs about the workload.
type dsHandle struct {
	ds    *datagen.Dataset
	topo  *core.Topology
	model core.ModelConfig
}

// runOverlap trains the bundled synthetic Reddit workload with both epoch
// schedules — serialized and overlapped — over both transports, reporting
// the per-epoch time breakdown with comm split into raw vs exposed. All runs
// are bit-identical by construction (the overlap equivalence tests pin
// this); the experiment's point is the wall-clock split: how much of the
// boundary-communication cost the stage order hides behind halo-free
// compute, on bare loopback, behind a uniform link delay, and over skewed
// links where every rank's lowest-ranked peer is its slowest.
func runOverlap(w io.Writer, o Options) error {
	o = o.withDefaults()
	spec := redditSpec()
	const k, kS = 2, 4
	p := 0.1
	epochs := o.epochs(40)
	warmup := 3
	if o.Quick {
		warmup = 1
	}

	ds, err := dataset(spec, o)
	if err != nil {
		return err
	}
	handles := map[int]dsHandle{}
	for _, kk := range []int{k, kS} {
		topo, err := topology(ds, kk, "metis", o.Seed)
		if err != nil {
			return err
		}
		handles[kk] = dsHandle{ds: ds, topo: topo, model: spec.model}
	}

	report := overlapReport{
		Workload: ds.Name, K: k, P: p,
		Layers: spec.model.Layers, Hidden: spec.model.Hidden,
		Epochs: epochs, GoMaxProc: runtime.GOMAXPROCS(0),
		ExposedReduction: map[string]float64{},
		SkewedK:          kS,
	}

	// The bare rows measure loopback as-is: on a box with enough cores per
	// rank, their exposed-comm delta is the overlap win. On a box where the
	// co-scheduled ranks serialize on few cores, loopback "comm waits" are
	// really CPU time spent running the peers, which no schedule can
	// reclaim — so the +2ms rows route the same traffic through
	// comm.WithLatency, modelling a link whose propagation delay sleeps
	// instead of burning cycles. The delay must exceed the CPU-contention
	// floor (the peers' per-phase compute) to be visible at all; 2ms does on
	// this k=2 workload, and the overlapped schedule then hides a large
	// share of it behind halo-free compute.
	const linkLatency = 2 * time.Millisecond
	withLatency := func(g *comm.Group) *comm.Group { return comm.WithLatency(g, linkLatency) }
	// The +skew rows: k=4 over a modeled WAN whose per-link latency falls
	// with the source rank. They get a longer warm-up for the TCP
	// demux/writer goroutines.
	skewBase := []time.Duration{4 * time.Millisecond, 2 * time.Millisecond, time.Millisecond, 500 * time.Microsecond}
	model := comm.LinkModel{PerLink: map[comm.Link]time.Duration{}, Jitter: 50 * time.Microsecond, Seed: o.Seed}
	for s := 0; s < kS; s++ {
		for d := 0; d < kS; d++ {
			if s != d {
				model.PerLink[comm.Link{Src: s, Dst: d}] = skewBase[s]
			}
		}
		report.SkewedLatencies = append(report.SkewedLatencies, fmt.Sprintf("src %d: %s", s, skewBase[s]))
	}
	withSkew := func(g *comm.Group) *comm.Group { return comm.WithLinkModel(g, model) }

	links := []struct {
		name, backend string
		k             int
		wrap          func(*comm.Group) *comm.Group
		latency       time.Duration
		warmup        int
	}{
		{"chan", "chan", k, nil, 0, warmup},
		{"tcp", "tcp", k, nil, 0, warmup},
		{"chan+2ms", "chan", k, withLatency, linkLatency, warmup},
		{"tcp+2ms", "tcp", k, withLatency, linkLatency, warmup},
		{"chan+skew", "chan", kS, withSkew, skewBase[0], warmup + 2},
		{"tcp+skew", "tcp", kS, withSkew, skewBase[0], warmup + 2},
	}

	fmt.Fprintf(w, "workload %s: %d nodes, p=%.2g, %d layers × %d hidden, %d epochs (+%d warm-up); k=%d, +skew rows k=%d with per-source latency %v..%v, jitter ≤%v\n\n",
		ds.Name, ds.G.N, p, spec.model.Layers, spec.model.Hidden, epochs, warmup, k, kS, skewBase[0], skewBase[kS-1], model.Jitter)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "transport\tschedule\tsample\tcompute\tcomm(raw)\tcomm(exposed)\treduce\ttotal/epoch")
	for _, link := range links {
		exposed := map[core.Schedule]float64{}
		for _, sched := range []core.Schedule{core.ScheduleSerialized, core.ScheduleOverlap} {
			res, err := measureSchedule(handles[link.k], link.k, p, sched, link.backend, link.wrap,
				int(link.latency/time.Microsecond), epochs, link.warmup, o.Seed)
			if err != nil {
				return err
			}
			res.Transport = link.name
			exposed[sched] = res.ExposedMS
			report.Results = append(report.Results, res)
			fmt.Fprintf(tw, "%s\t%s\t%.2fms\t%.2fms\t%.2fms\t%.2fms\t%.2fms\t%.2fms\n",
				link.name, res.Schedule, res.SampleMS, res.ComputeMS, res.CommMS, res.ExposedMS, res.ReduceMS, res.TotalMS)
		}
		if exposed[core.ScheduleSerialized] > 0 {
			report.ExposedReduction[link.name] = 1 - exposed[core.ScheduleOverlap]/exposed[core.ScheduleSerialized]
		}
	}
	tw.Flush()
	for _, link := range links {
		fmt.Fprintf(w, "\n%s: overlap hides %.0f%% of the serialized schedule's exposed comm",
			link.name, 100*report.ExposedReduction[link.name])
	}
	fmt.Fprintln(w)

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
