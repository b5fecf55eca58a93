package elastic

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
)

// TestCleanupTmp: a rank's orphan .tmp residue is swept, only its own files —
// peers share the directory and may be saving — and real checkpoints are
// untouched.
func TestCleanupTmp(t *testing.T) {
	dir := t.TempDir()
	junk := []byte("torn half-written save")
	for _, name := range []string{
		CheckpointPath(dir, 0, 3) + ".tmp",
		CheckpointPath(dir, 0, 4) + ".tmp",
		CheckpointPath(dir, 1, 3) + ".tmp",
	} {
		if err := os.WriteFile(name, junk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A real checkpoint name and an unrelated file must both survive.
	if err := os.WriteFile(CheckpointPath(dir, 0, 2), junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), junk, 0o644); err != nil {
		t.Fatal(err)
	}

	n, err := CleanupTmp(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("rank-0 sweep removed %d files, want 2", n)
	}
	if _, err := os.Stat(CheckpointPath(dir, 1, 3) + ".tmp"); err != nil {
		t.Fatal("rank-0 sweep touched rank 1's in-flight .tmp")
	}
	if _, err := os.Stat(CheckpointPath(dir, 0, 2)); err != nil {
		t.Fatal("sweep removed a real checkpoint")
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatal("sweep removed an unrelated file")
	}
	// A missing directory is not an error — nothing to clean.
	if _, err := CleanupTmp(filepath.Join(dir, "nope"), 0); err != nil {
		t.Fatal(err)
	}
}

// TestPruneGenerations pins the retention set: newest keep generations plus
// the consensus floor, everything else removed; keep=0 prunes nothing.
func TestPruneGenerations(t *testing.T) {
	ds, topo, cfg := testFixture(t, 2)
	rt, err := core.NewRankTrainer(ds, topo, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for g := 1; g <= 6; g++ {
		if err := SaveGenerationAs(dir, g, rt.Rank, rt); err != nil {
			t.Fatal(err)
		}
	}

	// keep=0: unlimited retention, the pre-GC behavior.
	if n, err := PruneGenerations(dir, 0, 0, 2); err != nil || n != 0 {
		t.Fatalf("keep=0 pruned %d files (err %v), want 0", n, err)
	}

	// keep=2, floor=2: retain {5,6} ∪ {2}, delete {1,3,4}.
	n, err := PruneGenerations(dir, 0, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("pruned %d files, want 3", n)
	}
	if got := listGens(dir, 0); len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("surviving generations %v, want [2 5 6]", got)
	}
	if got := LatestValidGen(dir, 0); got != 6 {
		t.Fatalf("latest valid gen %d after prune, want 6", got)
	}

	// Idempotent: the retention set is already in place.
	if n, err := PruneGenerations(dir, 0, 2, 2); err != nil || n != 0 {
		t.Fatalf("second prune removed %d files (err %v), want 0", n, err)
	}

	// Another rank's files are out of scope.
	rt1, err := core.NewRankTrainer(ds, topo, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for g := 1; g <= 4; g++ {
		if err := SaveGenerationAs(dir, g, rt1.Rank, rt1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := PruneGenerations(dir, 0, 2, 2); err != nil {
		t.Fatal(err)
	}
	if got := listGens(dir, 1); len(got) != 4 {
		t.Fatalf("rank 0's prune touched rank 1's files: %v", got)
	}
}

// TestSupervisorBoundsCheckpointGrowth runs a real elastic training loop
// with KeepGenerations set and demands the directory stays bounded: at most
// keep+1 files per rank at the end, the newest generations intact, and the
// run still recovers bit-exactly after a mid-run death.
func TestSupervisorBoundsCheckpointGrowth(t *testing.T) {
	const k, epochs, every, keep = 2, 8, 1, 2
	ds, topo, cfg := testFixture(t, k)
	dir := t.TempDir()
	// Seed an orphan .tmp as if a previous incarnation crashed mid-save: the
	// bootstrap sweep must remove it.
	orphan := CheckpointPath(dir, 0, 99) + ".tmp"
	if err := os.WriteFile(orphan, []byte("crashed save"), 0o644); err != nil {
		t.Fatal(err)
	}
	sup := &Supervisor{
		Cfg: Config{Dir: dir, Every: every, Epochs: epochs, MaxRecoveries: 1, KeepGenerations: keep},
		NewTrainer: func(_ []int, rank int) (*core.RankTrainer, error) {
			return core.NewRankTrainer(ds, topo, cfg, rank)
		},
		NewGroup: func(gen int) (*comm.Group, error) {
			g := comm.New(k, 0)
			if gen == 0 {
				g = comm.WithFaults(g, comm.KillAtEpoch(0, 5))
			}
			return g, nil
		},
	}
	trainers, rep, err := sup.Run()
	if err != nil {
		t.Fatalf("supervisor did not recover: %v (report %+v)", err, rep)
	}
	if rep.Recoveries != 1 {
		t.Fatalf("expected exactly 1 recovery, got %d", rep.Recoveries)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("bootstrap sweep left the orphan .tmp behind")
	}
	want := referenceHash(t, k, epochs)
	for r, rt := range trainers {
		if got := paramHash(rt.Model); got != want {
			t.Fatalf("rank %d weights diverged under checkpoint GC", r)
		}
		gens := listGens(dir, r)
		if len(gens) > keep+1 {
			t.Fatalf("rank %d retains %d generations %v, want <= %d", r, len(gens), gens, keep+1)
		}
		if gens[len(gens)-1] != epochs/every {
			t.Fatalf("rank %d newest generation %d, want %d", r, gens[len(gens)-1], epochs/every)
		}
	}
}
