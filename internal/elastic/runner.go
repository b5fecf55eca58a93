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
	// its rendezvous candidate and its checkpoint shards. On a shrunken
	// world the mesh rank is the slot's index in the agreed member set.
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
	// may be above ours — and reports the newest generation ANY slot holds,
	// since its own shard files are stale.
	Rejoin bool
	// NewTrainer constructs this slot's trainer for the given member set
	// (k' = len(members), compact mesh rank = index of slot in members);
	// called afresh on every bootstrap, like the Supervisor's. On a
	// full-strength world members is simply [0, World).
	NewTrainer func(members []int, slot int) (*core.RankTrainer, error)
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
	if err := cfg.validate(); err != nil {
		return nil, rep, err
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.ListenHost == "" {
		cfg.ListenHost = "127.0.0.1"
	}
	for {
		rt, startGen, members, err := runGeneration(&cfg)
		if members != nil {
			rep.Worlds = append(rep.Worlds, members)
		}
		if startGen >= 0 {
			rep.StartGens = append(rep.StartGens, startGen)
		}
		if err == nil {
			return rt, rep, nil
		}
		if err := rep.absorb(err, cfg.MaxRecoveries, fmt.Sprintf("elastic: rank %d", cfg.Rank)); err != nil {
			return nil, rep, err
		}
	}
}

// meshError marks bootstrap/mesh failures that are worth retrying — the
// cohort may simply not have reassembled yet (a replacement still starting,
// a peer tearing down its old listener). It satisfies recoverable() by
// carrying a *comm.TransportError.
func meshError(rank int, err error) error {
	return &comm.TransportError{Rank: rank, Err: err}
}

// runGeneration runs one bootstrap-train cycle. The returned generation is
// the one the cohort agreed to resume from (-1 if the failure happened
// before agreement), and members is the slot set the cohort agreed to train
// as (nil before agreement).
func runGeneration(cfg *RunnerConfig) (*core.RankTrainer, int, []int, error) {
	deadline := time.Now().Add(cfg.Timeout)

	// The data listener binds before rendezvous — its address is what we
	// advertise in the registration.
	dataLn, err := net.Listen("tcp", net.JoinHostPort(cfg.ListenHost, "0"))
	if err != nil {
		return nil, -1, nil, fmt.Errorf("elastic: rank %d: data listener: %w", cfg.Rank, err)
	}
	myGen := LatestValidGen(cfg.Dir, cfg.Rank)
	if cfg.Rejoin {
		if a := LatestValidGenAny(cfg.Dir); a > myGen {
			myGen = a
		}
	}
	tbl, err := bootstrap(bootConfig{
		rank:        cfg.Rank,
		world:       cfg.World,
		cands:       cfg.Candidates,
		dataAddr:    dataLn.Addr().String(),
		myGen:       myGen,
		rejoin:      cfg.Rejoin,
		stagger:     cfg.ElectionStagger,
		round:       cfg.RendezvousRound,
		resizeAfter: cfg.ResizeAfter,
		deadline:    deadline,
	})
	if err != nil {
		dataLn.Close()
		return nil, -1, nil, err
	}
	myIdx := indexOf(tbl.members, cfg.Rank)
	if myIdx < 0 {
		dataLn.Close()
		return nil, tbl.startGen, tbl.members, fmt.Errorf("elastic: rank %d: agreed member set %v has no seat for this rank", cfg.Rank, tbl.members)
	}
	tp, err := comm.DialTCPMesh(comm.TCPConfig{
		Rank:              myIdx,
		World:             len(tbl.members),
		ListenHost:        cfg.ListenHost,
		Timeout:           time.Until(deadline),
		HeartbeatInterval: cfg.HeartbeatInterval,
		HeartbeatTimeout:  cfg.HeartbeatTimeout,
	}, dataLn, tbl.addrs) // DialTCPMesh closes dataLn
	if err != nil {
		// The table went stale between agreement and mesh (another rank died
		// in the window, or a partial broadcast) — retry the bootstrap.
		return nil, tbl.startGen, tbl.members, meshError(cfg.Rank, fmt.Errorf("mesh dial failed: %w", err))
	}

	// Bootstrap-time GC is scoped to this rank's own files: peers share the
	// directory and may not have torn down yet.
	if _, err := CleanupTmp(cfg.Dir, cfg.Rank); err != nil {
		tp.Close()
		return nil, tbl.startGen, tbl.members, fmt.Errorf("elastic: rank %d: tmp cleanup: %w", cfg.Rank, err)
	}
	rt, err := resume(&cfg.Config, cfg.NewTrainer, tbl.members, cfg.Rank, tbl.startGen)
	if err == nil && len(tbl.members) < cfg.World && tbl.startGen > 0 {
		// Shrunken resume: before training on rows absorbed from the dead
		// slots, cross-check the replica invariant against whatever final
		// shards the dead slots left behind.
		err = verifyDeadShards(cfg, tbl.members, tbl.startGen, rt)
	}
	if err != nil {
		tp.Close()
		return nil, tbl.startGen, tbl.members, err
	}

	// While the world is shrunken, the lowest live slot keeps the door open
	// for replacements: a growth listener on its own rendezvous candidate.
	// An admit knock aborts the k' mesh (idempotent, safe from the watcher
	// goroutine), every survivor recovers, and the next bootstrap sees the
	// replacement. Failure to open the listener is not fatal — training at
	// k' proceeds; a replacement then only gets in after an organic failure.
	if len(tbl.members) < cfg.World && cfg.Rank == tbl.members[0] {
		gw, gerr := newGrowWatcher(cfg.Candidates[cfg.Rank], cfg.Rank, cfg.World, tbl.members, func(slot int) {
			tp.Abort()
		})
		if gerr != nil {
			debugf("rank %d: no growth listener: %v", cfg.Rank, gerr)
		} else {
			defer gw.Close()
		}
	}

	w := comm.NewWorker(tp)
	if err := trainRank(&cfg.Config, rt, w, tbl.startGen, cfg.Rank, cfg.OnEpoch); err != nil {
		tp.Close()
		return nil, tbl.startGen, tbl.members, err
	}
	// Drain in lockstep so no rank tears down while a peer still trains.
	if err := collective("final barrier", func() error { w.Barrier(); return nil }); err != nil {
		tp.Close()
		return nil, tbl.startGen, tbl.members, err
	}
	if err := tp.Close(); err != nil {
		return nil, tbl.startGen, tbl.members, err
	}
	return rt, tbl.startGen, tbl.members, nil
}

// verifyDeadShards cross-checks the shrink-time replica invariant: the rows
// this rank absorbed carry model state that the dead slots last checkpointed
// too, because every shard of a generation stores the same replica weights.
// A mismatch means the shared checkpoint directory is skewed (mixed runs,
// partial copies) and training on it would silently diverge — a hard error,
// not a recovery. Dead slots that never wrote a verifying shard of this
// generation are skipped; there is nothing to check against. Each shard is
// decoded once and compared in place.
func verifyDeadShards(cfg *RunnerConfig, members []int, gen int, rt *core.RankTrainer) error {
	for slot := 0; slot < cfg.World; slot++ {
		if indexOf(members, slot) >= 0 {
			continue
		}
		ck, err := core.ReadCheckpointFile(CheckpointPath(cfg.Dir, slot, gen))
		if err != nil {
			continue
		}
		d, err := ck.MaxParamDiff(rt.Model)
		if err != nil {
			return fmt.Errorf("elastic: rank %d: dead slot %d's shard of generation %d has a different model shape (%v): checkpoint directory %s mixes runs; refusing to train on absorbed rows", cfg.Rank, slot, gen, err, cfg.Dir)
		}
		if d != 0 {
			return fmt.Errorf("elastic: rank %d: dead slot %d's shard of generation %d disagrees with the cohort's weights (max param diff %g): checkpoint directory %s is skewed; refusing to train on absorbed rows", cfg.Rank, slot, gen, d, cfg.Dir)
		}
	}
	return nil
}
