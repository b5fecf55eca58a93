package elastic

import (
	"fmt"
	"net"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// RunnerConfig configures the per-process elastic loop. One process runs
// exactly one rank; a replacement process started with the dead rank's
// number (cmd/bnsgcn -join) runs the same loop and is indistinguishable
// from a survivor once admitted.
type RunnerConfig struct {
	Config
	// Rank is this process's SLOT: its stable launch-time identity, naming
	// its rendezvous candidate. On a shrunken world the mesh rank is the
	// slot's index in the agreed member set.
	Rank  int
	World int
	// Candidates is the rendezvous candidate address per rank (see
	// bootstrap.go): every process must agree on this list. cmd/bnsgcn
	// builds it from -hosts or defaults to loopback ports.
	Candidates []string
	// ListenHost is the interface the data listener binds and advertises;
	// on multi-host setups it must be this machine's externally reachable
	// address (loopback default only works single-host).
	ListenHost string
	// Timeout bounds each bootstrap (rendezvous + mesh dial).
	Timeout time.Duration
	// HeartbeatInterval/HeartbeatTimeout arm the wedged-peer detector on
	// the mesh (comm.TCPConfig); zero disables it and only closed
	// connections are detected.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// Rejoin marks a replacement re-admitting itself into a possibly
	// running cohort (cmd/bnsgcn -join): it probes every rendezvous
	// candidate — a shrunken cohort answers on the lowest LIVE slot, which
	// may be above ours.
	Rejoin bool
	// NewTrainer constructs this slot's trainer for the given member set;
	// see TrainerFactory. MemberTrainerFactory is the members-aware one.
	NewTrainer TrainerFactory
	// OnEpoch, when set, observes every completed epoch (progress logging,
	// evaluation, test instrumentation).
	OnEpoch EpochHook
}

// Run executes this rank's elastic training loop: bootstrap (elect a
// rendezvous server, agree on the member table and the resume generation),
// mesh, reload, train with periodic checkpoints — and on a peer's death,
// tear everything down and do it again. With Config.ResizeAfter set, a
// bootstrap that can't reassemble the full world completes with the stable
// survivors instead: they fold the dead slots' rows into their own
// partitions (the members-aware NewTrainer) and train on at k'; while
// shrunken, the lowest live slot keeps a growth listener on its rendezvous
// candidate, so a late replacement's knock aborts the small mesh and the
// next bootstrap reassembles the full world, shedding the absorbed rows
// back. Returns the trainer at Cfg.Epochs and the recovery report.
func Run(cfg RunnerConfig) (*core.RankTrainer, Report, error) {
	var rep Report
	if err := cfg.Validate(); err != nil {
		return nil, rep, err
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.ListenHost == "" {
		cfg.ListenHost = "127.0.0.1"
	}
	var rt *core.RankTrainer
	err := rep.retry(cfg.MaxRecoveries, fmt.Sprintf("elastic: rank %d", cfg.Rank), func(int) (members []int, startGen int, err error) {
		rt, members, startGen, err = runGeneration(&cfg)
		return members, startGen, err
	})
	if err != nil {
		return nil, rep, err
	}
	return rt, rep, nil
}

// runGeneration runs one bootstrap-train cycle: what is per-process by
// nature — the data listener, the rendezvous, the mesh and
// the grow watcher — then this slot's trainSlot, the generation body the
// Supervisor runs every rank through too. members is the slot set the cohort
// agreed to train as and startGen the generation it agreed to resume from
// (nil and -1 if the failure happened before agreement).
func runGeneration(cfg *RunnerConfig) (rt *core.RankTrainer, members []int, startGen int, err error) {
	deadline := time.Now().Add(cfg.Timeout)

	// The data listener binds before rendezvous — its address is what we
	// advertise in the registration.
	dataLn, err := net.Listen("tcp", net.JoinHostPort(cfg.ListenHost, "0"))
	if err != nil {
		return nil, nil, -1, fmt.Errorf("elastic: rank %d: data listener: %w", cfg.Rank, err)
	}
	tbl, err := bootstrap(bootConfig{
		rank:        cfg.Rank,
		world:       cfg.World,
		cands:       cfg.Candidates,
		dataAddr:    dataLn.Addr().String(),
		myGen:       LatestValidGen(cfg.Dir),
		rejoin:      cfg.Rejoin,
		stagger:     cfg.electionStagger,
		round:       cfg.rendezvousRound,
		resizeAfter: cfg.ResizeAfter,
		deadline:    deadline,
	})
	if err != nil {
		dataLn.Close()
		return nil, nil, -1, fmt.Errorf("%w (this rank's checkpoint directory: %s)", err, cfg.Dir)
	}
	tp, err := comm.DialTCPMesh(comm.TCPConfig{
		Rank:              indexOf(tbl.Members, cfg.Rank), // every agreed table seats us: comm.Register refuses one that doesn't
		World:             len(tbl.Members),
		ListenHost:        cfg.ListenHost,
		Timeout:           time.Until(deadline),
		HeartbeatInterval: cfg.HeartbeatInterval,
		HeartbeatTimeout:  cfg.HeartbeatTimeout,
	}, dataLn, tbl.Addrs) // DialTCPMesh closes dataLn
	if err != nil {
		// The table went stale between agreement and mesh (another rank died
		// in the window, or a partial broadcast), or the cohort has not
		// reassembled yet: carrying a *comm.TransportError makes the loop
		// retry the bootstrap.
		return nil, tbl.Members, tbl.StartGen, &comm.TransportError{Rank: cfg.Rank, Err: fmt.Errorf("mesh dial failed: %w", err)}
	}

	// While the world is shrunken, the lowest live slot keeps the door open
	// for replacements: a growth listener on its own rendezvous candidate.
	// An admit knock aborts the k' mesh (idempotent, safe from the watcher
	// goroutine), every survivor recovers, and the next bootstrap sees the
	// replacement. Failure to open the listener is not fatal — training at
	// k' proceeds; a replacement then only gets in after an organic failure.
	if len(tbl.Members) < cfg.World && cfg.Rank == tbl.Members[0] {
		gw, gerr := newGrowWatcher(cfg.Candidates[cfg.Rank], cfg.Rank, cfg.World, tbl.Members, func(slot int) {
			tp.Abort()
		})
		if gerr != nil {
			debugf("rank %d: no growth listener: %v", cfg.Rank, gerr)
		} else {
			defer gw.Close()
		}
	}

	rt, err = trainSlot(&cfg.Config, cfg.NewTrainer, cfg.OnEpoch, tbl.Members, tbl.StartGen, cfg.Rank, comm.NewWorker(tp))
	return rt, tbl.Members, tbl.StartGen, err
}
