// Package elastic makes BNS-GCN training survive rank death. It connects
// two facts the rest of the repo already establishes — survivors of a dead
// peer get a clean *comm.TransportError, and trainer checkpoints resume
// bit-exactly — into a recovery loop: every N epochs the cohort writes an
// atomic generation-numbered checkpoint; when a rank dies, survivors tear
// down their transports, rejoin a generation-bumped rendezvous (served by
// rank 0 or, if rank 0 died, its lowest-ranked live successor), agree on
// the newest checkpoint generation every rank can see, reload it, and train
// on. A replacement process re-admitted into the dead rank's slot loads the
// same file from the shared checkpoint directory, so the final weights are
// bit-identical to an uninterrupted run.
//
// Two entry points share one generation body. Run drives the single rank of a
// real multi-process deployment (cmd/bnsgcn's elastic mode): it elects,
// meshes and watches for growth, then hands its slot to trainSlot — resume,
// train, drain. Supervisor drives k ranks in one process over either backend
// (the form the bit-exactness and chaos tests use): it scripts the member set
// and takes the consensus as a directory read, then runs every rank through
// that same trainSlot. Both build trainers with MemberTrainerFactory.
package elastic

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Checkpoint generations: generation g is the state after g*Every completed
// epochs; generation 0 is "fresh start, nothing on disk". A generation is
// one file, written by the member at mesh rank 0: what a restore reads back
// — weights, Adam state, epoch, strategy — is the same on every rank, and
// each rank derives its own sampling and dropout positions from the epoch
// (core.Checkpoint.Restore), so every member, survivor or replacement, of
// any world size, loads the same file.

// CheckpointPath returns generation gen's checkpoint file under dir. The
// fixed-width numbering keeps lexical and numeric order identical, so
// directory listings read in training order.
func CheckpointPath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-g%08d.bnst", gen))
}

// SaveGeneration atomically writes rt's state as generation gen.
func SaveGeneration(dir string, gen int, rt *core.RankTrainer) error {
	return core.SaveTrainerCheckpointFile(CheckpointPath(dir, gen), rt)
}

// listGens returns every checkpoint generation present in dir, ascending,
// verified or not.
func listGens(dir string) []int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var gens []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-g") || !strings.HasSuffix(name, ".bnst") {
			continue
		}
		g, err := strconv.Atoi(strings.TrimSuffix(name[len("ckpt-g"):], ".bnst"))
		if err != nil || g <= 0 {
			continue
		}
		gens = append(gens, g)
	}
	sort.Ints(gens)
	return gens
}

// LatestValidGen scans dir for the newest checkpoint generation that
// actually verifies — right magic, right version, intact trailing CRC. Torn
// files never pass (the atomic save leaves them under a .tmp name the scan
// ignores; a bit-rotted or truncated file fails its checksum), so a corrupt
// latest generation silently falls back to the one before it. Returns 0 —
// fresh start — when dir has no loadable checkpoint.
func LatestValidGen(dir string) int {
	gens := listGens(dir)
	for i := len(gens) - 1; i >= 0; i-- {
		if core.VerifyTrainerCheckpointFile(CheckpointPath(dir, gens[i])) == nil {
			return gens[i]
		}
	}
	return 0
}

// CleanupTmp removes orphan checkpoint .tmp files — the residue of saves
// that crashed between writing the temporary and renaming it into place.
// Without this sweep every crash leaks a full-sized file forever. Only the
// writer calls it, when a generation starts and before it trains, so no
// live save's .tmp is removed.
func CleanupTmp(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	removed := 0
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-g") || !strings.HasSuffix(name, ".bnst.tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// PruneGenerations bounds checkpoint-directory growth: it retains the newest
// keep generations — never fewer than two — plus the floor generation, and
// deletes the rest. floor is the cohort's min-consensus generation, the one
// every rank agreed to resume from, and is never deleted. The second newest
// stays because a member's scan may run just before the writer's latest save
// lands (a peer died while it was being written): that member names the
// generation before it, and the consensus must find it on disk. At most
// max(keep, 2)+1 files remain. keep <= 0 means unlimited retention and
// prunes nothing. Returns the number of files removed.
func PruneGenerations(dir string, keep, floor int) (int, error) {
	if keep <= 0 {
		return 0, nil
	}
	keep = max(keep, 2)
	gens := listGens(dir)
	if len(gens) <= keep {
		return 0, nil
	}
	removed := 0
	for _, g := range gens[:len(gens)-keep] {
		if g == floor {
			continue
		}
		if err := os.Remove(CheckpointPath(dir, g)); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// LoadGeneration restores generation gen into rt; generation 0 is a fresh
// start and loads nothing. The file is read once, and one that does not
// decode or does not fit rt has touched nothing in rt.
func LoadGeneration(dir string, gen int, rt *core.RankTrainer) error {
	if gen == 0 {
		return nil
	}
	ck, err := core.ReadCheckpointFile(CheckpointPath(dir, gen))
	if err != nil {
		return err
	}
	return ck.Restore(rt)
}
