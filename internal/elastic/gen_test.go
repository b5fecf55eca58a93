package elastic

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
)

// TestCleanupTmp: orphan .tmp residue of any generation is swept, and real
// checkpoints and unrelated files are untouched.
func TestCleanupTmp(t *testing.T) {
	dir := t.TempDir()
	junk := []byte("torn half-written save")
	for _, name := range []string{
		CheckpointPath(dir, 3) + ".tmp",
		CheckpointPath(dir, 4) + ".tmp",
	} {
		if err := os.WriteFile(name, junk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A real checkpoint name and an unrelated file must both survive.
	if err := os.WriteFile(CheckpointPath(dir, 2), junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), junk, 0o644); err != nil {
		t.Fatal(err)
	}

	n, err := CleanupTmp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("sweep removed %d files, want 2", n)
	}
	if _, err := os.Stat(CheckpointPath(dir, 2)); err != nil {
		t.Fatal("sweep removed a real checkpoint")
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Fatal("sweep removed an unrelated file")
	}
	// A missing directory is not an error — nothing to clean.
	if _, err := CleanupTmp(filepath.Join(dir, "nope")); err != nil {
		t.Fatal(err)
	}
}

// TestPruneGenerations pins the retention set: the newest keep generations,
// two at the least, plus the consensus floor, everything else removed;
// keep=0 prunes nothing.
func TestPruneGenerations(t *testing.T) {
	ds, topo, cfg := testFixture(t, 2)
	rt, err := core.NewRankTrainer(ds, topo, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for g := 1; g <= 6; g++ {
		if err := SaveGeneration(dir, g, rt); err != nil {
			t.Fatal(err)
		}
	}

	// keep=0: unlimited retention.
	if n, err := PruneGenerations(dir, 0, 2); err != nil || n != 0 {
		t.Fatalf("keep=0 pruned %d files (err %v), want 0", n, err)
	}

	// keep=1 retains as much as keep=2: with floor=2, {5,6} ∪ {2}; {1,3,4} go.
	n, err := PruneGenerations(dir, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("pruned %d files, want 3", n)
	}
	if got := listGens(dir); !reflect.DeepEqual(got, []int{2, 5, 6}) {
		t.Fatalf("surviving generations %v, want [2 5 6]", got)
	}
	if got := LatestValidGen(dir); got != 6 {
		t.Fatalf("latest valid gen %d after prune, want 6", got)
	}

	// Idempotent: the retention set is already in place.
	if n, err := PruneGenerations(dir, 2, 2); err != nil || n != 0 {
		t.Fatalf("second prune removed %d files (err %v), want 0", n, err)
	}
}

// TestLaggingScanNamesARetainedGeneration: a member's directory scan can run
// just before the writer's newest save lands, so it names the generation
// before the writer's. At KeepGenerations 1, with the consensus floor at
// generation 1, that lagging name must still load after every save and
// prune the writer makes.
func TestLaggingScanNamesARetainedGeneration(t *testing.T) {
	ds, topo, cfg := testFixture(t, 2)
	writer, err := core.NewRankTrainer(ds, topo, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const floor = 1
	for g := 1; g <= 6; g++ {
		lagging := LatestValidGen(dir) // the member's scan, before the save
		if err := SaveGeneration(dir, g, writer); err != nil {
			t.Fatal(err)
		}
		if _, err := PruneGenerations(dir, 1, floor); err != nil {
			t.Fatal(err)
		}
		if lagging != g-1 {
			t.Fatalf("scan before generation %d's save named %d, want %d", g, lagging, g-1)
		}
		member, err := core.NewRankTrainer(ds, topo, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := LoadGeneration(dir, lagging, member); err != nil {
			t.Fatalf("after generation %d's save and prune, the lagging scan's generation %d does not load: %v (on disk: %v)", g, lagging, err, listGens(dir))
		}
	}
}

// TestSupervisorBoundsCheckpointGrowth runs a real elastic training loop
// with KeepGenerations set and demands the directory stays bounded — one
// file per retained generation, at most keep+1 of them, nothing else — and
// the run still recovers bit-exactly after a mid-run death.
func TestSupervisorBoundsCheckpointGrowth(t *testing.T) {
	const k, epochs, every, keep = 2, 8, 1, 2
	ds, topo, cfg := testFixture(t, k)
	dir := t.TempDir()
	// Seed an orphan .tmp as if a previous incarnation crashed mid-save: the
	// writer's sweep must remove it.
	orphan := CheckpointPath(dir, 99) + ".tmp"
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
	want := referenceHash(t, k, epochs)
	for r, rt := range trainers {
		if got := paramHash(rt.Model); got != want {
			t.Fatalf("rank %d weights diverged under checkpoint GC", r)
		}
	}
	// Generations 1–5 are written before the kill at the top of epoch 5; the
	// recovery resumes from 5, which stays as the floor beside the newest
	// two, 7 and 8.
	if gens := generationFiles(t, dir); !reflect.DeepEqual(gens, []int{5, 7, 8}) {
		t.Fatalf("directory retains generations %v, want [5 7 8]: the newest %d plus the resume floor", gens, keep)
	}
}

// generationFiles returns the generations of dir's files, ascending, and
// fails the test on any file that is not a generation's checkpoint.
func generationFiles(t *testing.T, dir string) []int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var gens []int
	for _, e := range ents {
		var g int
		if _, err := fmt.Sscanf(e.Name(), "ckpt-g%08d.bnst", &g); err != nil || e.Name() != filepath.Base(CheckpointPath(dir, g)) {
			t.Fatalf("checkpoint directory holds %q, not a generation file", e.Name())
		}
		gens = append(gens, g)
	}
	return gens
}
