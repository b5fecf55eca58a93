package elastic

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// Multi-process world resizing: genuine OS processes, real loopback sockets,
// real SIGKILL. These are the acceptance tests for the permanent-loss path —
// a k=4 run loses a rank for good, continues at k=3, and (in the grow-back
// test) a late -join replacement grows it back to k=4.

// mpResizeEnv is the resize knob set the multi-process tests share. The
// round/stability margins are deliberately generous: a shrink must only ever
// fire because a rank is DEAD, never because a slow sibling process was still
// generating its fixture when the roster stabilized without it.
func mpResizeEnv() []string {
	return []string{
		empEnvResize + "=3",
		empEnvStagMS + "=100",
		empEnvRoundMS + "=500",
	}
}

type mpResult struct {
	hash       string
	recoveries int
	worlds     []string // world sizes per generation, e.g. ["4", "3", "4"]
}

// safeBuf is a Writer the parent can read WHILE exec's copier goroutine
// writes: the polling in the grow-back test reads a live process's output.
type safeBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *safeBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// maxEpoch scans a helper's output for the highest EMP-EPOCH this rank has
// reported so far.
func maxEpoch(out fmt.Stringer, rank int) int {
	best := -1
	sc := bufio.NewScanner(strings.NewReader(out.String()))
	for sc.Scan() {
		var r, e int
		if _, err := fmt.Sscanf(sc.Text(), "EMP-EPOCH rank=%d epoch=%d", &r, &e); err == nil && r == rank && e > best {
			best = e
		}
	}
	return best
}

// parseMPResult extracts the EMP-RESULT line from a helper process's output.
func parseMPResult(t *testing.T, rank int, out fmt.Stringer) mpResult {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(out.String()))
	for sc.Scan() {
		var r, rec int
		var hash, worlds string
		if _, err := fmt.Sscanf(sc.Text(), "EMP-RESULT rank=%d hash=%s recoveries=%d worlds=%s", &r, &hash, &rec, &worlds); err == nil && r == rank {
			return mpResult{hash: hash, recoveries: rec, worlds: strings.Split(worlds, ":")}
		}
	}
	t.Fatalf("rank %d produced no EMP-RESULT line:\n%s", rank, out.String())
	return mpResult{}
}

// TestMultiProcessResizeShrinkDeterminism: four processes train; rank 3
// exits hard at the epoch-3 boundary (a scripted, deterministic death) and is
// never replaced. The three survivors must elect k'=3, absorb slot 3's rows,
// and finish — and the entire scenario, run twice from scratch, must produce
// bit-identical weights, because every input to the shrunken run (the
// consensus generation, the member set, the repartition, the reloaded RNG
// streams) is deterministic.
func TestMultiProcessResizeShrinkDeterminism(t *testing.T) {
	if os.Getenv(empEnvRank) != "" {
		t.Skip("already inside a helper process")
	}
	const world, epochs = 4, 8
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	run := func() map[int]mpResult {
		dir := t.TempDir()
		cands := strings.Join(freeCandidates(t, world), ",")
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()

		cmds := make(map[int]*exec.Cmd, world)
		outs := make(map[int]*bytes.Buffer, world)
		for r := 0; r < world; r++ {
			extra := mpResizeEnv()
			if r == world-1 {
				extra = append(extra, empEnvDieAt+"=3")
			}
			cmd := empCommand(ctx, exe, dir, cands, world, r, epochs, extra...)
			outs[r] = &bytes.Buffer{}
			cmd.Stdout, cmd.Stderr = outs[r], outs[r]
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			cmds[r] = cmd
		}
		for r := 0; r < world-1; r++ {
			if err := cmds[r].Wait(); err != nil {
				t.Fatalf("survivor rank %d failed: %v\n%s", r, err, outs[r].String())
			}
		}
		if err := cmds[world-1].Wait(); err == nil {
			t.Fatalf("the scripted victim exited cleanly — it never died:\n%s", outs[world-1].String())
		}

		results := make(map[int]mpResult, world-1)
		for r := 0; r < world-1; r++ {
			results[r] = parseMPResult(t, r, outs[r])
		}
		return results
	}

	first := run()
	for r := 1; r < world-1; r++ {
		if first[r].hash != first[0].hash {
			t.Fatalf("survivors diverged: rank %d %s vs rank 0 %s", r, first[r].hash, first[0].hash)
		}
	}
	for r := 0; r < world-1; r++ {
		w := first[r].worlds
		if len(w) < 2 || w[0] != "4" || w[len(w)-1] != "3" {
			t.Fatalf("rank %d world sizes %v: want a full k=4 start that ends shrunken at k=3", r, w)
		}
		if first[r].recoveries < 1 {
			t.Fatalf("rank %d absorbed no recovery", r)
		}
	}

	second := run()
	if second[0].hash != first[0].hash {
		t.Fatalf("k'=3 run is not deterministic across repeats: %s vs %s", second[0].hash, first[0].hash)
	}
}

// TestMultiProcessResizeGrowBack is the full lifecycle under real SIGKILL:
// rank 3 is killed mid-training with no replacement waiting; the survivors
// shrink to k'=3 and keep training until the shrunken world's owner reaches
// epoch 8, where it holds (empEnvHoldAt) until a replacement knocks. Once it
// reports holding, the parent starts a -join replacement, whose knock on the
// growth listener makes the cohort re-rendezvous at full strength — however
// long the replacement takes to start, the k'=3 world cannot finish first.
// All four processes must finish at the target epoch with identical
// replicas, and every reassigned row goes home: the final generation trains
// at k=4. Epochs are slowed so the kill lands mid-run.
//
// The parent watches progress by polling the children's (mutex-guarded)
// output buffers rather than piping stdout: exec.Cmd.Wait closes a
// StdoutPipe when the child exits, which can truncate the final EMP-RESULT
// line out from under a streaming scanner.
func TestMultiProcessResizeGrowBack(t *testing.T) {
	if os.Getenv(empEnvRank) != "" {
		t.Skip("already inside a helper process")
	}
	const world, epochs = 4, 30
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cands := strings.Join(freeCandidates(t, world), ",")
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	const holdAt = 8
	knobs := append(mpResizeEnv(), empEnvSlowMS+"=150", fmt.Sprintf("%s=%d", empEnvHoldAt, holdAt))

	outs := make(map[int]*safeBuf, world)
	start := func(rank int, extra ...string) *exec.Cmd {
		cmd := empCommand(ctx, exe, dir, cands, world, rank, epochs,
			append(append([]string(nil), knobs...), extra...)...)
		outs[rank] = &safeBuf{}
		cmd.Stdout, cmd.Stderr = outs[rank], outs[rank]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}

	victim := start(3)
	survivors := make(map[int]*exec.Cmd, world-1)
	for r := 0; r < world-1; r++ {
		survivors[r] = start(r)
	}

	// waitFor polls a child's output until ready holds of it.
	waitFor := func(rank int, ready func(out string) bool, why string) {
		for !ready(outs[rank].String()) {
			select {
			case <-ctx.Done():
				t.Fatalf("%s:\n%s", why, outs[rank].String())
			case <-time.After(50 * time.Millisecond):
			}
		}
	}

	// Kill the victim once it has trained (and checkpointed) past epoch 3.
	waitFor(3, func(string) bool { return maxEpoch(outs[3], 3) >= 3 }, "victim never reached epoch 3")
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait() // SIGKILL: non-zero exit is the point

	// Wait until the shrunken world's owner holds at k'=3 (it prints EMP-HOLD
	// only on a world smaller than 4), then start the replacement: the -join
	// path, probing every candidate for the growth listener.
	waitFor(0, func(out string) bool { return strings.Contains(out, "EMP-HOLD rank=0") }, "rank 0 never held on the shrunken world")
	replacement := start(3, empEnvJoin+"=1")

	for r := 0; r < world-1; r++ {
		if err := survivors[r].Wait(); err != nil {
			t.Fatalf("survivor rank %d failed: %v\n%s", r, err, outs[r].String())
		}
	}
	if err := replacement.Wait(); err != nil {
		t.Fatalf("replacement rank 3 failed: %v\n%s", err, outs[3].String())
	}

	results := make(map[int]mpResult, world)
	for r := 0; r < world; r++ {
		results[r] = parseMPResult(t, r, outs[r])
	}
	for r := 1; r < world; r++ {
		if results[r].hash != results[0].hash {
			t.Fatalf("rank %d replica %s != rank 0 replica %s after grow-back", r, results[r].hash, results[0].hash)
		}
	}
	for r := 0; r < world-1; r++ {
		w := results[r].worlds
		shrunk := false
		for _, s := range w {
			if s == "3" {
				shrunk = true
			}
		}
		if !shrunk || w[len(w)-1] != "4" {
			t.Fatalf("survivor %d world sizes %v: want a k=3 interlude that grows back to k=4", r, w)
		}
		if results[r].recoveries < 2 {
			t.Fatalf("survivor %d absorbed %d recoveries, want at least the kill and the grow knock", r, results[r].recoveries)
		}
	}
	for _, s := range results[3].worlds {
		if s != "4" {
			t.Fatalf("replacement world sizes %v: a -join rank only ever trains at full strength", results[3].worlds)
		}
	}
}
