package elastic

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// Config holds the knobs shared by the in-process Supervisor and the
// per-process Run loop.
type Config struct {
	// Dir is the checkpoint directory. In a multi-process deployment every
	// rank (and any replacement process) must see the same directory — a
	// replacement re-admitted into a dead rank's slot resumes from the dead
	// rank's files.
	Dir string
	// Every is the checkpoint cadence in epochs (generation g = state after
	// g*Every epochs). Smaller values bound the recomputation a recovery
	// replays; larger values cost less save time per epoch.
	Every int
	// Epochs is the training target: ranks train until Epoch() == Epochs.
	Epochs int
	// MaxRecoveries bounds how many failures the loop absorbs before giving
	// up and returning the underlying error.
	MaxRecoveries int
	// KeepGenerations, when positive, bounds on-disk checkpoint growth: after
	// each save a rank prunes its own generations down to the newest
	// KeepGenerations, never deleting the generation the cohort last agreed
	// to resume from (see PruneGenerations). Zero keeps everything — the
	// prior behavior.
	KeepGenerations int
	// ResizeAfter, when positive, enables world resizing: a rendezvous whose
	// rounds keep timing out with the same stable partial cohort (at least
	// two live ranks) completes after that many consecutive rounds with just
	// the survivors, who repartition the dead ranks' rows among themselves
	// and train on at the smaller world. Zero (the default) keeps the PR-6
	// behavior: wait for a replacement forever.
	ResizeAfter int
	// ElectionStagger is the per-rank delay unit before a rank gives up
	// probing lower candidates and serves its own rendezvous round (rank r
	// waits r*ElectionStagger). Zero means the 300ms default; chaos tests
	// shrink it to keep elections off the wall clock.
	ElectionStagger time.Duration
	// RendezvousRound is the collection window of one rendezvous round.
	// Zero means the 3s default. ResizeAfter is counted in these rounds, so
	// the time from last heartbeat to a shrink decision is roughly
	// ResizeAfter*RendezvousRound.
	RendezvousRound time.Duration
}

func (c *Config) validate() error {
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
	if c.ElectionStagger < 0 || c.RendezvousRound < 0 {
		return fmt.Errorf("elastic: negative rendezvous timing (stagger %v, round %v)", c.ElectionStagger, c.RendezvousRound)
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

// trainRank drives one rank from its current epoch to cfg.Epochs, saving a
// generation checkpoint every cfg.Every epochs. The MarkEpoch call at the
// top of each epoch is what lets a comm.WithFaults plan kill this rank at a
// deterministic epoch boundary; on plain transports it is a no-op.
// startGen is the generation the cohort agreed to resume from at the last
// bootstrap — the floor the post-save GC must never prune past, since any
// future recovery's consensus can fall back to it. slot is the rank's
// stable launch-time identity; checkpoints are keyed by it, while rt.Rank
// is the compact mesh rank (they differ only on a shrunken world).
func trainRank(cfg *Config, rt *core.RankTrainer, w *comm.Worker, startGen, slot int, onEpoch EpochHook) error {
	for rt.Epoch() < cfg.Epochs {
		if err := comm.MarkEpoch(w.Transport(), rt.Epoch()); err != nil {
			return fmt.Errorf("elastic: rank %d: %w", slot, err)
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
		if rt.Epoch()%cfg.Every == 0 {
			if err := SaveGenerationAs(cfg.Dir, rt.Epoch()/cfg.Every, slot, rt); err != nil {
				return fmt.Errorf("elastic: rank %d: checkpoint save: %w", slot, err)
			}
			if _, err := PruneGenerations(cfg.Dir, slot, cfg.KeepGenerations, startGen); err != nil {
				return fmt.Errorf("elastic: rank %d: checkpoint GC: %w", slot, err)
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

// resume builds slot's trainer for the agreed member set and brings it to
// the agreed generation: load startGen (from slot's own shard, or a donor's)
// and prune generations older than the consensus. It runs at bootstrap only,
// before any rank trains. Its callers sweep the .tmp residue of crashed saves
// first: the Supervisor owns the whole directory and sweeps it once per
// generation; a multi-process rank shares it with peers that may not have
// torn down yet and sweeps only its own files.
func resume(cfg *Config, newTrainer func(members []int, slot int) (*core.RankTrainer, error),
	members []int, slot, startGen int) (*core.RankTrainer, error) {
	rt, err := newTrainer(members, slot)
	if err != nil {
		return nil, fmt.Errorf("elastic: rank %d: trainer: %w", slot, err)
	}
	donor, err := LoadGenerationAs(cfg.Dir, startGen, slot, rt)
	if err != nil {
		return nil, fmt.Errorf("elastic: rank %d: load gen %d: %w", slot, startGen, err)
	}
	if donor >= 0 && donor != slot {
		debugf("rank %d: hydrated gen %d from slot %d's shard", slot, startGen, donor)
	}
	if _, err := PruneGenerations(cfg.Dir, slot, cfg.KeepGenerations, startGen); err != nil {
		return nil, fmt.Errorf("elastic: rank %d: checkpoint GC: %w", slot, err)
	}
	return rt, nil
}

// absorb books a failed generation: a peer or transport death within the
// recovery budget returns nil — go round again — and anything else returns
// the error the loop gives up with. who prefixes the give-up message.
func (rep *Report) absorb(failed error, maxRecoveries int, who string) error {
	if !recoverable(failed) {
		return failed
	}
	rep.Recoveries++
	rep.Failures = append(rep.Failures, failed)
	if rep.Recoveries > maxRecoveries {
		return fmt.Errorf("%s: giving up after %d recoveries: %w", who, rep.Recoveries-1, failed)
	}
	return nil
}

// Supervisor drives all k ranks of an elastic training run inside one
// process: the in-process twin of the multi-process Run loop, and the
// harness the recovery bit-exactness tests are built on. It owns the full
// loop — train, checkpoint every N epochs, and on any rank's death tear the
// group down, rebuild it through NewGroup, agree on the newest generation
// every rank holds, reload, and resume.
type Supervisor struct {
	Cfg Config
	// NewTrainer constructs slot's trainer within the given member set
	// (compact rank = index of slot in members, k' = len(members); on a
	// full-strength world members is [0, k) and slot the rank). It is called
	// afresh on every bootstrap — recovery never reuses a trainer that
	// observed the failure, exactly like a restarted process wouldn't.
	NewTrainer func(members []int, slot int) (*core.RankTrainer, error)
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
	if err := s.Cfg.validate(); err != nil {
		return nil, rep, err
	}
	var prev []int
	for gen := 0; ; gen++ {
		g, err := s.NewGroup(gen)
		if err != nil {
			return nil, rep, fmt.Errorf("elastic: generation %d: group: %w", gen, err)
		}
		trainers, members, err := s.generation(gen, g, prev, &rep)
		g.Close()
		if err == nil {
			return trainers, rep, nil
		}
		if err := rep.absorb(err, s.Cfg.MaxRecoveries, "elastic"); err != nil {
			return nil, rep, err
		}
		prev = members
	}
}

// generation runs one bootstrap-train cycle over g: agree on the member set
// and the resume generation, resume every slot, train to Cfg.Epochs. prev is
// the member set of the generation before. The error is the bootstrap's, or
// the most informative of the ranks' training failures.
func (s *Supervisor) generation(gen int, g *comm.Group, prev []int, rep *Report) ([]*core.RankTrainer, []int, error) {
	k := g.Size()
	members := fullMembers(k)
	if s.Members != nil {
		if m := s.Members(gen); m != nil {
			members = m
		}
		if len(members) != k {
			return nil, nil, fmt.Errorf("elastic: generation %d: Members lists %d slots but the group has %d endpoints", gen, len(members), k)
		}
	}
	rep.Worlds = append(rep.Worlds, append([]int(nil), members...))
	// Generation consensus, the in-process degenerate case: every rank's
	// scan is a local directory read, the agreement is a plain min. The
	// multi-process loop exchanges the same numbers through the elastic
	// rendezvous (see bootstrap.go). A slot re-admitted after sitting a
	// generation out (a -join replacement in the multi-process world)
	// reports the newest generation held by ANY slot: its own files are
	// stale, and donor hydration covers the gap, so its staleness must not
	// drag the whole cohort back.
	start := 0
	for i, slot := range members {
		lg := LatestValidGen(s.Cfg.Dir, slot)
		if gen > 0 && prev != nil && indexOf(prev, slot) < 0 {
			if a := LatestValidGenAny(s.Cfg.Dir); a > lg {
				lg = a
			}
		}
		if i == 0 || lg < start {
			start = lg
		}
	}
	rep.StartGens = append(rep.StartGens, start)
	if _, err := CleanupTmp(s.Cfg.Dir, -1); err != nil {
		return nil, nil, fmt.Errorf("elastic: generation %d: tmp cleanup: %w", gen, err)
	}
	trainers := make([]*core.RankTrainer, k)
	for r, slot := range members {
		var err error
		if trainers[r], err = resume(&s.Cfg, s.NewTrainer, members, slot, start); err != nil {
			return nil, nil, err
		}
	}

	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = trainRank(&s.Cfg, trainers[r], g.Worker(r), start, members[r], s.OnEpoch)
		}(r)
	}
	wg.Wait()

	// Pick the most informative failure for the report: the victim's own
	// error names the root cause (e.g. an injected fault), while the
	// survivors only see "transport aborted by rank r".
	var failed error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if failed == nil {
			failed = err
		}
		var inj *comm.InjectedFault
		if errors.As(err, &inj) {
			failed = err
			break
		}
	}
	return trainers, members, failed
}
