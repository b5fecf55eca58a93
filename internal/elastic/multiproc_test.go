package elastic

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// The kill-and-rejoin smoke test: three genuine OS processes train over
// real loopback sockets; the parent SIGKILLs rank 0 — the hardest rank to
// lose, since it is both the default rendezvous server and a mesh peer —
// mid-training, then starts a replacement process in the dead slot. The
// survivors must detect the death, re-elect a rendezvous (rank 1 serves
// interim, then defers when the replacement claims candidate 0), agree to
// resume from the newest generation every rank holds on disk, and finish
// with weights bit-identical to an uninterrupted in-process run.

const (
	empEnvRank   = "BNSGCN_EMP_RANK"
	empEnvWorld  = "BNSGCN_EMP_WORLD"
	empEnvDir    = "BNSGCN_EMP_DIR"
	empEnvCands  = "BNSGCN_EMP_CANDS"
	empEnvEpochs = "BNSGCN_EMP_EPOCHS"
	empEnvEvery  = "BNSGCN_EMP_EVERY"
	// Resize knobs, unset for the plain kill-and-rejoin test: ResizeAfter
	// rounds, Rejoin flag, rendezvous timing in ms, and a scripted suicide
	// epoch (the process exits hard at that epoch boundary — a deterministic
	// stand-in for a parent SIGKILL, used by the shrink-determinism test).
	empEnvResize  = "BNSGCN_EMP_RESIZE"
	empEnvJoin    = "BNSGCN_EMP_JOIN"
	empEnvStagMS  = "BNSGCN_EMP_STAGGER_MS"
	empEnvRoundMS = "BNSGCN_EMP_ROUND_MS"
	empEnvDieAt   = "BNSGCN_EMP_DIE_AT"
	// empEnvSlowMS stretches every epoch by a sleep, widening the window in
	// which a late replacement can knock while the shrunken world trains.
	empEnvSlowMS = "BNSGCN_EMP_SLOW_MS"
	// empEnvHoldAt makes the owner of a shrunken world (its lowest live
	// slot, the one running the growth listener) hold in the epoch hook
	// from that epoch on, after printing an EMP-HOLD line, until a
	// replacement's knock fires growSignal or a minute passes: the shrunken
	// world cannot finish before the replacement is in.
	empEnvHoldAt = "BNSGCN_EMP_HOLD_AT"
	empWorld     = 3
	empEpochs    = 8
	empEvery     = 2
)

// TestElasticMPHelper is the per-rank body; it only runs when re-execed by
// TestMultiProcessKillAndRejoin and skips otherwise.
func TestElasticMPHelper(t *testing.T) {
	if os.Getenv(empEnvRank) == "" {
		t.Skip("helper process for TestMultiProcessKillAndRejoin")
	}
	rank, _ := strconv.Atoi(os.Getenv(empEnvRank))
	world, _ := strconv.Atoi(os.Getenv(empEnvWorld))
	epochs, _ := strconv.Atoi(os.Getenv(empEnvEpochs))
	every, _ := strconv.Atoi(os.Getenv(empEnvEvery))
	resize, _ := strconv.Atoi(os.Getenv(empEnvResize))
	stagMS, _ := strconv.Atoi(os.Getenv(empEnvStagMS))
	roundMS, _ := strconv.Atoi(os.Getenv(empEnvRoundMS))
	dieAt, _ := strconv.Atoi(os.Getenv(empEnvDieAt))
	holdAt, _ := strconv.Atoi(os.Getenv(empEnvHoldAt))
	grown := make(chan struct{})
	if holdAt > 0 {
		var once sync.Once
		growSignal = func(owner, joiner int) { once.Do(func() { close(grown) }) }
	}
	held := false

	ds, parts, topo, cfg := testFixtureParts(t, world)
	rt, rep, err := Run(RunnerConfig{
		Config: Config{
			Dir: os.Getenv(empEnvDir), Every: every, Epochs: epochs, MaxRecoveries: 3,
			ResizeAfter:     resize,
			electionStagger: time.Duration(stagMS) * time.Millisecond,
			rendezvousRound: time.Duration(roundMS) * time.Millisecond,
		},
		Rank:       rank,
		World:      world,
		Candidates: strings.Split(os.Getenv(empEnvCands), ","),
		Timeout:    60 * time.Second,
		Rejoin:     os.Getenv(empEnvJoin) == "1",
		NewTrainer: MemberTrainerFactory(ds, parts, topo, cfg, world),
		// Stream epoch progress so the parent can time the SIGKILL; Printf
		// hits the stdout fd directly, no buffering to defeat. The printed
		// rank is the slot, which on a shrunken world differs from rt.Rank.
		OnEpoch: func(rt *core.RankTrainer, w *comm.Worker, _ core.RankStats) error {
			fmt.Printf("EMP-EPOCH rank=%d epoch=%d\n", rank, rt.Epoch())
			if dieAt > 0 && rt.Epoch() == dieAt {
				os.Exit(17) // scripted death, as abrupt as a SIGKILL to the peers
			}
			if holdAt > 0 && !held && rt.Epoch() >= holdAt && w.Size() < world && w.Rank() == 0 {
				held = true
				fmt.Printf("EMP-HOLD rank=%d epoch=%d world=%d\n", rank, rt.Epoch(), w.Size())
				select {
				case <-grown:
				case <-time.After(time.Minute):
					fmt.Printf("EMP-HOLD-TIMEOUT rank=%d: no replacement knocked\n", rank)
				}
			}
			if ms, _ := strconv.Atoi(os.Getenv(empEnvSlowMS)); ms > 0 {
				time.Sleep(time.Duration(ms) * time.Millisecond)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("elastic run: %v (report %+v)", err, rep)
	}
	fmt.Printf("EMP-RESULT rank=%d hash=%s recoveries=%d worlds=%s\n",
		rank, paramHash(rt.Model), rep.Recoveries, worldsKey(rep.Worlds))
}

// worldsKey flattens a Report.Worlds history into "3:2:3"-style member-set
// sizes, printable on one line and comparable across ranks.
func worldsKey(worlds [][]int) string {
	sizes := make([]string, len(worlds))
	for i, m := range worlds {
		sizes[i] = strconv.Itoa(len(m))
	}
	return strings.Join(sizes, ":")
}

func empCommand(ctx context.Context, exe, dir, cands string, world, rank, epochs int, extra ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, exe, "-test.run=TestElasticMPHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		fmt.Sprintf("%s=%d", empEnvRank, rank),
		fmt.Sprintf("%s=%d", empEnvWorld, world),
		fmt.Sprintf("%s=%s", empEnvDir, dir),
		fmt.Sprintf("%s=%s", empEnvCands, cands),
		fmt.Sprintf("%s=%d", empEnvEpochs, epochs),
		fmt.Sprintf("%s=%d", empEnvEvery, empEvery),
	)
	cmd.Env = append(cmd.Env, extra...)
	return cmd
}

func TestMultiProcessKillAndRejoin(t *testing.T) {
	if os.Getenv(empEnvRank) != "" {
		t.Skip("already inside a helper process")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cands := strings.Join(freeCandidates(t, empWorld), ",")

	// The whole drama — train, kill, re-elect, rejoin, finish — gets a hard
	// deadline; a wedged recovery fails the test instead of hanging CI.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// The victim's stdout is streamed so the kill lands mid-training, after
	// it has completed (and checkpointed past) epoch 3.
	// Stdout is teed by the scanner goroutine; stderr gets its own buffer —
	// exec copies stderr on a separate goroutine, so sharing one buffer
	// between the two would race.
	victim := empCommand(ctx, exe, dir, cands, empWorld, 0, empEpochs)
	victimOut, victimErr := &bytes.Buffer{}, &bytes.Buffer{}
	victim.Stderr = victimErr
	pipe, err := victim.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	epochCh := make(chan int, empEpochs)
	var scanWG sync.WaitGroup
	scanWG.Add(1)
	go func() {
		defer scanWG.Done()
		sc := bufio.NewScanner(io.TeeReader(pipe, victimOut))
		for sc.Scan() {
			var r, e int
			if _, err := fmt.Sscanf(sc.Text(), "EMP-EPOCH rank=%d epoch=%d", &r, &e); err == nil {
				select {
				case epochCh <- e:
				default:
				}
			}
		}
	}()

	survivors := make([]*exec.Cmd, 0, empWorld-1)
	outs := make(map[int]*bytes.Buffer)
	for r := 1; r < empWorld; r++ {
		cmd := empCommand(ctx, exe, dir, cands, empWorld, r, empEpochs)
		outs[r] = &bytes.Buffer{}
		cmd.Stdout, cmd.Stderr = outs[r], outs[r]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		survivors = append(survivors, cmd)
	}

	killed := false
	for !killed {
		select {
		case e := <-epochCh:
			if e >= 3 {
				if err := victim.Process.Kill(); err != nil {
					t.Fatal(err)
				}
				killed = true
			}
		case <-ctx.Done():
			scanWG.Wait()
			t.Fatalf("victim never reached epoch 3 before the deadline:\n%s%s", victimOut.String(), victimErr.String())
		}
	}
	victim.Wait() // SIGKILL: a non-zero exit is the point
	scanWG.Wait()

	// The replacement process claims the dead slot — the -join path.
	replacement := empCommand(ctx, exe, dir, cands, empWorld, 0, empEpochs)
	outs[0] = &bytes.Buffer{}
	replacement.Stdout, replacement.Stderr = outs[0], outs[0]
	if err := replacement.Start(); err != nil {
		t.Fatal(err)
	}

	for r, cmd := range append(survivors, replacement) {
		rank := r + 1
		if rank == empWorld {
			rank = 0
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("rank %d process failed: %v\n%s", rank, err, outs[rank].String())
		}
	}

	want := referenceHash(t, empWorld, empEpochs)
	recoveries := make(map[int]int)
	for rank, out := range outs {
		var hash string
		found := false
		sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
		for sc.Scan() {
			var r, rec int
			if _, err := fmt.Sscanf(sc.Text(), "EMP-RESULT rank=%d hash=%s recoveries=%d", &r, &hash, &rec); err == nil {
				found = true
				recoveries[r] = rec
			}
		}
		if !found {
			t.Fatalf("rank %d produced no EMP-RESULT line:\n%s", rank, out.String())
		}
		if hash != want {
			t.Errorf("rank %d finished with weights %s != uninterrupted reference %s", rank, hash, want)
		}
	}
	for r := 1; r < empWorld; r++ {
		if recoveries[r] < 1 {
			t.Errorf("survivor rank %d reports %d recoveries; it must have absorbed the kill", r, recoveries[r])
		}
	}
	if recoveries[0] != 0 {
		t.Errorf("replacement rank 0 reports %d recoveries, want a clean single-generation run", recoveries[0])
	}
}
