package elastic

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/partition"
)

// Config holds the knobs shared by the in-process Supervisor and the
// per-process Run loop.
type Config struct {
	// Dir is the checkpoint directory. In a multi-process deployment every
	// rank (and any replacement process) must see the same directory: the
	// member at mesh rank 0 writes each generation's one file, and every
	// member resumes from it.
	Dir string
	// Every is the checkpoint cadence in epochs (generation g = state after
	// g*Every epochs). Smaller values bound the recomputation a recovery
	// replays; larger values cost less save time per epoch.
	Every int
	// Epochs is the training target: ranks train until Epoch() == Epochs.
	Epochs int
	// MaxRecoveries bounds how many failures the loop absorbs before giving
	// up and returning the underlying error; zero absorbs none.
	MaxRecoveries int
	// KeepGenerations, when positive, bounds on-disk checkpoint growth: after
	// each save the writer prunes the generations down to the newest
	// KeepGenerations (two at the least), never deleting the generation the
	// cohort last agreed to resume from (see PruneGenerations). Zero keeps
	// everything.
	KeepGenerations int
	// ResizeAfter, when positive, enables world resizing: a rendezvous whose
	// rounds keep timing out with the same stable partial cohort (at least
	// two live ranks) completes after that many consecutive rounds with just
	// the survivors, who repartition the dead ranks' rows among themselves
	// and train on at the smaller world. Zero (the default) waits for a
	// replacement forever. A round's window is 3s, so the time from last
	// heartbeat to a shrink decision is roughly 3s*ResizeAfter.
	ResizeAfter int

	// electionStagger (rank r waits r*electionStagger before serving its own
	// rendezvous round) and rendezvousRound (one round's collection window)
	// are the tests' hooks for keeping elections off the wall clock; zero
	// means the 300ms and 3s defaults.
	electionStagger, rendezvousRound time.Duration
}

// Validate checks the configuration. Run and Supervisor.Run call it first; a
// command calls it before it generates or partitions anything.
func (c *Config) Validate() error {
	if c.Every <= 0 {
		return fmt.Errorf("elastic: checkpoint cadence %d must be positive", c.Every)
	}
	if c.Epochs < 0 {
		return fmt.Errorf("elastic: %d epochs", c.Epochs)
	}
	if c.Dir == "" {
		return fmt.Errorf("elastic: checkpoint directory is required")
	}
	if c.ResizeAfter < 0 {
		return fmt.Errorf("elastic: negative ResizeAfter %d", c.ResizeAfter)
	}
	if c.KeepGenerations < 0 {
		return fmt.Errorf("elastic: negative KeepGenerations %d (0 keeps every generation)", c.KeepGenerations)
	}
	if c.MaxRecoveries < 0 {
		return fmt.Errorf("elastic: negative MaxRecoveries %d (0 absorbs no failure)", c.MaxRecoveries)
	}
	return nil
}

// Report describes what a recovery loop lived through.
type Report struct {
	// Recoveries is the number of failures absorbed.
	Recoveries int
	// StartGens records the checkpoint generation each bootstrap agreed to
	// resume from; StartGens[0] is the initial start (0 = fresh).
	StartGens []int
	// Worlds records the member slots each bootstrap agreed on, parallel to
	// StartGens: the full [0,world) on a full-strength generation, the
	// surviving slots on a shrunken one.
	Worlds [][]int
	// Failures holds the error that triggered each recovery.
	Failures []error
}

// EpochHook observes a completed epoch on the rank that ran it, before the
// epoch's checkpoint is saved. It is handed the rank's worker, so a hook every
// rank runs alike may call collectives over the live transport — score the
// model with RankTrainer.Evaluate, all-reduce a display loss. Its error ends
// the generation like an epoch's: one carrying a *comm.TransportError (a peer
// died under the hook's collective) is absorbed as a recovery, and the epoch
// and its hook are replayed from the last generation.
type EpochHook func(rt *core.RankTrainer, w *comm.Worker, st core.RankStats) error

// recoverable reports whether err is a peer/transport death the elastic
// loop should absorb — anything carrying a *comm.TransportError, which
// includes injected faults and epoch failures wrapping one. Everything else
// (checkpoint I/O failures, programming errors) aborts the run.
func recoverable(err error) bool {
	var te *comm.TransportError
	return errors.As(err, &te)
}

// trainRank drives one rank from its current epoch to cfg.Epochs; every
// cfg.Every epochs the member at mesh rank 0 writes a generation checkpoint.
// The MarkEpoch call at the top of each epoch is what lets a comm.WithFaults
// plan kill this rank at a deterministic epoch boundary; on plain transports
// it is a no-op. startGen is the generation the cohort agreed to resume from
// at the last bootstrap — the floor the post-save GC must never prune past,
// since any future recovery's consensus can fall back to it.
func trainRank(cfg *Config, rt *core.RankTrainer, w *comm.Worker, startGen int, onEpoch EpochHook) error {
	for rt.Epoch() < cfg.Epochs {
		if err := comm.MarkEpoch(w.Transport(), rt.Epoch()); err != nil {
			return fmt.Errorf("elastic: rank %d: %w", rt.Rank, err)
		}
		st, err := rt.TrainEpoch(w)
		if err != nil {
			return err
		}
		if onEpoch != nil {
			if err := collective("epoch hook", func() error { return onEpoch(rt, w, st) }); err != nil {
				return err
			}
		}
		if rt.Rank == 0 && rt.Epoch()%cfg.Every == 0 {
			if err := SaveGeneration(cfg.Dir, rt.Epoch()/cfg.Every, rt); err != nil {
				return fmt.Errorf("elastic: checkpoint save: %w", err)
			}
			if _, err := PruneGenerations(cfg.Dir, cfg.KeepGenerations, startGen); err != nil {
				return fmt.Errorf("elastic: checkpoint GC: %w", err)
			}
		}
	}
	return nil
}

// collective runs a step that talks to the peers outside TrainEpoch and
// Evaluate — the epoch hook, the final barrier — converting the transport
// panic a dying peer causes there into an error the recovery loop can absorb.
func collective(what string, step func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("elastic: %s: %w", what, e)
			} else {
				err = fmt.Errorf("elastic: %s: %v", what, r)
			}
		}
	}()
	return step()
}

// TrainerFactory constructs slot's trainer within the given member set
// (compact mesh rank = index of slot in members, k' = len(members); on a
// full-strength world members is [0, world) and slot the rank). Both loops
// call it afresh on every bootstrap — recovery never reuses a trainer that
// observed the failure, exactly like a restarted process wouldn't.
type TrainerFactory func(members []int, slot int) (*core.RankTrainer, error)

// MemberTrainerFactory is the members-aware factory of an elastic run over
// one launch-time partitioning. The full member set reuses topo; a shrunken
// set folds the dead slots' rows into the survivors
// (partition.ShrinkToMembers) and rebuilds the k' topology, memoized per
// member set under a mutex: every recovery of one membership must agree bit
// for bit, the multilevel rebuild is too expensive to redo per bootstrap, and
// the Supervisor builds all of a generation's trainers at once. A slot that
// has no seat in members is an error.
func MemberTrainerFactory(ds *datagen.Dataset, parts []int32, topo *core.Topology, pcfg core.ParallelConfig, world int) TrainerFactory {
	type layout struct {
		topo *core.Topology
		err  error
	}
	cache := map[string]*layout{}
	var mu sync.Mutex
	return func(members []int, slot int) (*core.RankTrainer, error) {
		idx := indexOf(members, slot)
		if idx < 0 {
			return nil, fmt.Errorf("rank %d is not in the member set %v", slot, members)
		}
		if len(members) == world {
			return core.NewRankTrainer(ds, topo, pcfg, slot)
		}
		key := fmt.Sprint(members)
		mu.Lock()
		lo, ok := cache[key]
		if !ok {
			lo = &layout{}
			if shrunk, err := partition.ShrinkToMembers(ds.G, parts, world, members); err != nil {
				lo.err = err
			} else {
				lo.topo, lo.err = core.BuildTopology(ds.G, shrunk, len(members))
			}
			cache[key] = lo
		}
		mu.Unlock()
		if lo.err != nil {
			return nil, fmt.Errorf("shrinking partition layout to members %v: %w", members, lo.err)
		}
		return core.NewRankTrainer(ds, lo.topo, pcfg, idx)
	}
}

// trainSlot is one slot's share of a generation once the cohort has agreed on
// members and startGen; both loops run every rank through it. It resumes
// the trainer, trains to cfg.Epochs, drains in lockstep so no rank tears down
// while a peer still trains, and closes w's transport. On failure it aborts
// the transport first, so no peer is left waiting on this rank.
func trainSlot(cfg *Config, newTrainer TrainerFactory, onEpoch EpochHook,
	members []int, startGen, slot int, w *comm.Worker) (*core.RankTrainer, error) {
	rt, err := resume(cfg, newTrainer, members, slot, startGen)
	if err == nil {
		err = trainRank(cfg, rt, w, startGen, onEpoch)
	}
	if err == nil {
		err = collective("final barrier", func() error { w.Barrier(); return nil })
	}
	tp := w.Transport()
	if err != nil {
		tp.Abort()
		tp.Close()
		return nil, err
	}
	if err := tp.Close(); err != nil {
		return nil, err
	}
	return rt, nil
}

// resume builds slot's trainer for the agreed member set and loads the
// agreed generation into it. The writer — the member at mesh rank 0 — then
// sweeps the .tmp residue of crashed saves and prunes generations older than
// the consensus.
func resume(cfg *Config, newTrainer TrainerFactory, members []int, slot, startGen int) (*core.RankTrainer, error) {
	rt, err := newTrainer(members, slot)
	if err != nil {
		return nil, fmt.Errorf("elastic: rank %d: trainer: %w", slot, err)
	}
	if err := LoadGeneration(cfg.Dir, startGen, rt); err != nil {
		return nil, fmt.Errorf("elastic: rank %d: load gen %d: %w", slot, startGen, err)
	}
	if rt.Rank == 0 {
		if _, err := CleanupTmp(cfg.Dir); err != nil {
			return nil, fmt.Errorf("elastic: rank %d: tmp cleanup: %w", slot, err)
		}
		if _, err := PruneGenerations(cfg.Dir, cfg.KeepGenerations, startGen); err != nil {
			return nil, fmt.Errorf("elastic: rank %d: checkpoint GC: %w", slot, err)
		}
	}
	return rt, nil
}

// retry runs generations 0, 1, … until one succeeds, booking the member set
// and resume generation each one agreed on (nil and -1: it failed before
// agreement). A peer or transport death within the recovery budget goes
// round again; anything else is the error the loop gives up with, prefixed
// by who once the budget is spent.
func (rep *Report) retry(maxRecoveries int, who string, generation func(gen int) (members []int, startGen int, err error)) error {
	for gen := 0; ; gen++ {
		members, startGen, failed := generation(gen)
		if members != nil {
			rep.Worlds = append(rep.Worlds, members)
		}
		if startGen >= 0 {
			rep.StartGens = append(rep.StartGens, startGen)
		}
		if failed == nil || !recoverable(failed) {
			return failed
		}
		rep.Recoveries++
		rep.Failures = append(rep.Failures, failed)
		if rep.Recoveries > maxRecoveries {
			return fmt.Errorf("%s: giving up after %d recoveries: %w", who, rep.Recoveries-1, failed)
		}
	}
}

// Supervisor drives all k ranks of an elastic training run inside one
// process, the harness the recovery bit-exactness and chaos tests are built
// on. Only what is in-process by nature is its own: a scripted member set
// instead of the rendezvous election, the min-generation consensus as a plain
// directory read, a fresh NewGroup fabric per generation, and one goroutine
// per member. Every rank then runs the generation body the multi-process Run
// ships — resume, train, drain — and on any rank's death the group is torn
// down and the loop goes round again.
type Supervisor struct {
	Cfg Config
	// NewTrainer constructs slot's trainer within the given member set; see
	// TrainerFactory. MemberTrainerFactory is the members-aware one.
	NewTrainer TrainerFactory
	// NewGroup builds the communication fabric for rendezvous generation
	// gen (0 for the initial bootstrap, bumped on every recovery). Tests
	// inject faults by wrapping the returned group in comm.WithFaults for
	// the generation the fault should fire in; a fresh group per generation
	// is what guarantees a one-shot fault cannot re-fire after recovery.
	// When Members is set, the group's size must equal len(Members(gen)).
	NewGroup func(gen int) (*comm.Group, error)
	// Members, when set, scripts world resizing: it returns the live slots
	// of rendezvous generation gen (nil means the full world). This is the
	// in-process stand-in for the rendezvous shrink election — the resize
	// chaos tests use it to pin exactly which generations run shrunken.
	Members func(gen int) []int
	// OnEpoch, when set, observes every completed epoch on every rank.
	OnEpoch EpochHook
}

// Run executes the elastic loop to completion and returns the final
// trainers (one per rank, all at Cfg.Epochs) plus the recovery report.
func (s *Supervisor) Run() ([]*core.RankTrainer, Report, error) {
	var rep Report
	if err := s.Cfg.Validate(); err != nil {
		return nil, rep, err
	}
	var trainers []*core.RankTrainer
	err := rep.retry(s.Cfg.MaxRecoveries, "elastic", func(gen int) (members []int, start int, err error) {
		g, err := s.NewGroup(gen)
		if err != nil {
			return nil, -1, fmt.Errorf("elastic: generation %d: group: %w", gen, err)
		}
		defer g.Close()
		trainers, members, start, err = s.generation(gen, g)
		return members, start, err
	})
	if err != nil {
		return nil, rep, err
	}
	return trainers, rep, nil
}

// generation runs one bootstrap-train cycle over g: agree on the member set
// and the resume generation, then run every member through trainSlot. The
// error is the bootstrap's, or the most informative of the ranks' failures.
func (s *Supervisor) generation(gen int, g *comm.Group) ([]*core.RankTrainer, []int, int, error) {
	k := g.Size()
	members := fullMembers(k)
	if s.Members != nil {
		if m := s.Members(gen); m != nil {
			members = append([]int(nil), m...)
		}
		if len(members) != k {
			return nil, nil, -1, fmt.Errorf("elastic: generation %d: Members lists %d slots but the group has %d endpoints", gen, len(members), k)
		}
	}
	// Generation consensus, the in-process degenerate case: every rank would
	// report the same directory read at the same moment, so the agreement is
	// that read. The multi-process loop takes the min of the ranks' reports
	// through the elastic rendezvous (see bootstrap.go).
	start := LatestValidGen(s.Cfg.Dir)

	trainers := make([]*core.RankTrainer, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r, slot := range members {
		wg.Add(1)
		go func(r, slot int) {
			defer wg.Done()
			trainers[r], errs[r] = trainSlot(&s.Cfg, s.NewTrainer, s.OnEpoch, members, start, slot, g.Worker(r))
		}(r, slot)
	}
	wg.Wait()

	// Pick the most informative failure for the report: the victim's own
	// error names the root cause (e.g. an injected fault, a checkpoint that
	// does not load), while the survivors only see "transport aborted
	// by rank r".
	var failed error
	for _, err := range errs {
		var inj *comm.InjectedFault
		switch {
		case err == nil:
		case errors.As(err, &inj):
			return trainers, members, start, err
		case failed == nil || recoverable(failed) && !recoverable(err):
			failed = err
		}
	}
	return trainers, members, start, failed
}
