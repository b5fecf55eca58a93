// Package elastic makes BNS-GCN training survive rank death. It connects
// two facts the rest of the repo already establishes — survivors of a dead
// peer get a clean *comm.TransportError, and trainer checkpoints resume
// bit-exactly — into a recovery loop: every N epochs each rank writes an
// atomic generation-numbered checkpoint; when a rank dies, survivors tear
// down their transports, rejoin a generation-bumped rendezvous (served by
// rank 0 or, if rank 0 died, its lowest-ranked live successor), agree on
// the newest checkpoint generation every rank actually holds, reload it,
// and train on. A replacement process re-admitted into the dead rank's slot
// picks up that rank's checkpoint from the shared checkpoint directory, so
// the final weights are bit-identical to an uninterrupted run.
//
// Two entry points share one generation body. Run drives the single rank of a
// real multi-process deployment (cmd/bnsgcn's elastic mode): it elects,
// meshes and watches for growth, then hands its slot to trainSlot — sweep,
// resume, dead-shard check, train, drain. Supervisor drives k ranks in one
// process over either backend (the form the bit-exactness and chaos tests
// use): it scripts the member set and takes the consensus as a directory
// read, then runs every rank through that same trainSlot. Both build
// trainers with MemberTrainerFactory.
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
// epochs; generation 0 is "fresh start, nothing on disk". Every rank writes
// its own file per generation — rank state differs (rank-seeded sampling
// streams, local dropout positions) even though the model replicas agree.

// CheckpointPath returns the canonical checkpoint file name for (rank, gen)
// under dir. The fixed-width numbering keeps lexical and numeric order
// identical, so directory listings read in training order.
func CheckpointPath(dir string, rank, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-r%03d-g%08d.bnst", rank, gen))
}

// SaveGenerationAs atomically writes the checkpoint for gen under slot's
// file name. The slot is a rank's PERMANENT identity — its launch-time rank.
// On a full-strength world slot == rt.Rank; after a world shrink the
// trainer's compact rank differs from its slot, and checkpoint files stay
// keyed by slot so a grown-back cohort finds every rank's history where it
// expects it.
func SaveGenerationAs(dir string, gen, slot int, rt *core.RankTrainer) error {
	return core.SaveTrainerCheckpointFile(CheckpointPath(dir, slot, gen), rt)
}

// listGens returns every checkpoint generation present on disk for rank,
// ascending, verified or not.
func listGens(dir string, rank int) []int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	prefix := fmt.Sprintf("ckpt-r%03d-g", rank)
	var gens []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".bnst") {
			continue
		}
		g, err := strconv.Atoi(strings.TrimSuffix(name[len(prefix):], ".bnst"))
		if err != nil || g <= 0 {
			continue
		}
		gens = append(gens, g)
	}
	sort.Ints(gens)
	return gens
}

// LatestValidGen scans dir for the newest checkpoint generation of rank
// that actually verifies — right magic, right version, intact trailing CRC.
// Torn files never pass (the atomic save leaves them under a .tmp name the
// scan ignores; a bit-rotted or truncated file fails its checksum), so a
// corrupt latest generation silently falls back to the one before it.
// Returns 0 — fresh start — when dir has no loadable checkpoint for rank.
func LatestValidGen(dir string, rank int) int {
	gens := listGens(dir, rank)
	for i := len(gens) - 1; i >= 0; i-- {
		if core.VerifyTrainerCheckpointFile(CheckpointPath(dir, rank, gens[i])) == nil {
			return gens[i]
		}
	}
	return 0
}

// CleanupTmp removes rank's orphan checkpoint .tmp files — the residue of
// saves that crashed between writing the temporary and renaming it into
// place. Without this sweep every crash leaks a full-sized file forever.
// Only rank's own files are swept, so a peer's in-flight save is never
// removed from under its rename. Call it at bootstrap only, before rank
// resumes training — a live save's .tmp must not be removed.
func CleanupTmp(dir string, rank int) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	prefix := fmt.Sprintf("ckpt-r%03d-g", rank)
	removed := 0
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".bnst.tmp") {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// PruneGenerations bounds checkpoint-directory growth: it retains rank's
// newest keep generations plus the floor generation and deletes the rest.
// floor is the cohort's min-consensus generation — the one every rank agreed
// to resume from — and is never deleted, so a recovery (or a re-admitted
// replacement resuming from stale files) can always fall back to it; at most
// keep+1 files per rank remain. keep <= 0 means unlimited retention (the
// prior behavior) and prunes nothing. Returns the number of files removed.
func PruneGenerations(dir string, rank, keep, floor int) (int, error) {
	if keep <= 0 {
		return 0, nil
	}
	gens := listGens(dir, rank)
	if len(gens) <= keep {
		return 0, nil
	}
	removed := 0
	for _, g := range gens[:len(gens)-keep] {
		if g == floor {
			continue
		}
		if err := os.Remove(CheckpointPath(dir, rank, g)); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}

// scanSlots returns the distinct slots with at least one checkpoint file in
// dir, ascending.
func scanSlots(dir string) []int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	seen := map[int]bool{}
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-r") || !strings.HasSuffix(name, ".bnst") {
			continue
		}
		rest := name[len("ckpt-r"):]
		i := strings.Index(rest, "-g")
		if i < 0 {
			continue
		}
		s, err := strconv.Atoi(rest[:i])
		if err != nil || s < 0 {
			continue
		}
		seen[s] = true
	}
	slots := make([]int, 0, len(seen))
	for s := range seen {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	return slots
}

// LatestValidGenAny returns the newest generation for which ANY slot's shard
// verifies. This is what a -join replacement reports at rendezvous: its own
// slot's files are stale (or missing) after the cohort trained without it,
// but with the shared checkpoint directory the elastic mode mandates, any
// member's shard of a generation carries the replica-identical model state
// it needs — reporting its own stale number would needlessly roll every
// survivor back.
func LatestValidGenAny(dir string) int {
	best := 0
	for _, s := range scanSlots(dir) {
		if g := LatestValidGen(dir, s); g > best {
			best = g
		}
	}
	return best
}

// LoadGenerationAs restores generation gen into rt from slot's own shard
// or, when that shard is missing or does not decode, from the lowest slot
// whose shard of gen does — the donor. Each candidate is read from disk once,
// and a shard that fails to decode has touched nothing in rt. Donor hydration
// is how a re-admitted replacement (or a survivor absorbing a dead slot's
// rows) catches up past its own stale files: the model and Adam state in
// every shard of a generation are replica-identical, and the donor's
// sampling/dropout RNG positions are adopted wholesale, which keeps the
// resumed run deterministic (the streams are applied to this rank's own
// partition, so the draws decorrelate immediately). Returns the slot actually
// loaded — slot itself on the normal path, -1 for gen 0.
func LoadGenerationAs(dir string, gen, slot int, rt *core.RankTrainer) (int, error) {
	if gen == 0 {
		return -1, nil
	}
	for i, d := range append([]int{slot}, scanSlots(dir)...) {
		if i > 0 && d == slot {
			continue // own shard already tried
		}
		ck, err := core.ReadCheckpointFile(CheckpointPath(dir, d, gen))
		if err != nil {
			continue
		}
		return d, ck.Restore(rt)
	}
	return -1, fmt.Errorf("elastic: no shard of generation %d decodes in %s (slot %d needs one to resume)", gen, dir, slot)
}
