package elastic

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
)

// World resizing, end to end. The tests here cover the three layers of the
// feature separately and then together: the rendezvous shrink election
// (bootstrap), the growth listener (growWatcher), the per-process runner
// (shrink determinism, grow-back, double death), and the in-process
// Supervisor chaos matrix over both transports.

// resizeKnobs are the fast rendezvous timings the resize tests share: small
// enough that a shrink election (resizeAfter * round) costs well under a
// second, large enough that loopback dials comfortably fit in a round.
const (
	tStagger = 40 * time.Millisecond
	tRound   = 250 * time.Millisecond
	tResize  = 2
)

// TestBootstrapResizesToStableSurvivors: world 3 with slot 1 dead. The two
// survivors must elect the two-member world after tResize stable incomplete
// rounds, agree on min(gen), and list addresses in member order.
func TestBootstrapResizesToStableSurvivors(t *testing.T) {
	const world = 3
	cands := freeCandidates(t, world)
	live := []int{0, 2}
	gens := map[int]int{0: 6, 2: 5}
	tables := make(map[int]*comm.Table)
	errs := make(map[int]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(20 * time.Second)
	for _, r := range live {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tbl, err := bootstrap(bootConfig{
				rank: r, world: world, cands: cands,
				dataAddr: fmt.Sprintf("10.0.0.%d:9000", r), myGen: gens[r],
				stagger: tStagger, round: tRound, resizeAfter: tResize,
				deadline: deadline,
			})
			mu.Lock()
			tables[r], errs[r] = tbl, err
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	for _, r := range live {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		tbl := tables[r]
		if !reflect.DeepEqual(tbl.Members, []int{0, 2}) {
			t.Fatalf("rank %d elected members %v, want the two survivors [0 2]", r, tbl.Members)
		}
		if tbl.StartGen != 5 {
			t.Fatalf("rank %d agreed on gen %d, want min gen 5", r, tbl.StartGen)
		}
		if tbl.Addrs[0] != "10.0.0.0:9000" || tbl.Addrs[1] != "10.0.0.2:9000" {
			t.Fatalf("rank %d addrs %v not in member order", r, tbl.Addrs)
		}
	}
}

// TestBootstrapLoneRankNeverSelfElects: resizing must not let a single
// isolated rank fork a one-member "cohort" — it times out with an error that
// says exactly that.
func TestBootstrapLoneRankNeverSelfElects(t *testing.T) {
	cands := freeCandidates(t, 3)
	_, err := bootstrap(bootConfig{
		rank: 1, world: 3, cands: cands, dataAddr: "me:2",
		stagger: tStagger, round: tRound, resizeAfter: 1,
		deadline: time.Now().Add(1500 * time.Millisecond),
	})
	if err == nil {
		t.Fatal("a lone rank completed a resize-enabled rendezvous")
	}
	if !strings.Contains(err.Error(), "lone survivor") {
		t.Fatalf("error does not name the lone-survivor situation: %v", err)
	}
}

// knockGrow dials a growth listener like a rejoining bootstrap would and
// returns the first response line.
func knockGrow(t *testing.T, addr string, slot int) string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("knock %s: %v", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	fmt.Fprintf(conn, "EJOIN %d 10.0.0.9:9 0\n", slot)
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("knock %s: read: %v", addr, err)
	}
	return strings.TrimSpace(line)
}

// TestGrowWatcherAdmitsOnceAndRejectsImpostors: the growth listener parks a
// genuine replacement with ERETRY and fires onGrow exactly once; while the
// shrunken world is still running, knocks claiming a live member's slot or
// an out-of-range slot get a pointed EERR and never trigger growth. After
// the grow knock has fired, a member knock is a survivor's re-rendezvous
// probe racing the watcher's shutdown and is parked with ERETRY instead.
func TestGrowWatcherAdmitsOnceAndRejectsImpostors(t *testing.T) {
	before := goroutineStacks()
	addr := freeCandidates(t, 1)[0]
	var mu sync.Mutex
	var grew []int
	gw, err := newGrowWatcher(addr, 0, 3, []int{0, 2}, func(slot int) {
		mu.Lock()
		grew = append(grew, slot)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Before any grow knock, a member-slot knock is a duplicate process.
	if got := knockGrow(t, addr, 2); !strings.HasPrefix(got, "EERR") || !strings.Contains(got, "already a live member") {
		t.Fatalf("live-member knock answered %q, want a duplicate-process EERR", got)
	}
	if got := knockGrow(t, addr, 7); !strings.HasPrefix(got, "EERR") {
		t.Fatalf("out-of-range knock answered %q, want EERR", got)
	}
	if got := knockGrow(t, addr, 1); got != "ERETRY" {
		t.Fatalf("replacement knock answered %q, want ERETRY", got)
	}
	if got := knockGrow(t, addr, 1); got != "ERETRY" {
		t.Fatalf("second knock answered %q, want ERETRY", got)
	}
	// After the knock the mesh is re-forming: a member probe gets ERETRY.
	if got := knockGrow(t, addr, 2); got != "ERETRY" {
		t.Fatalf("post-grow member probe answered %q, want ERETRY", got)
	}
	gw.Close()

	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(grew, []int{1}) {
		t.Fatalf("onGrow fired for %v, want exactly once for slot 1", grew)
	}
	waitNoLeaks(t, before)
}

// resizeRunner builds a RunnerConfig with the fast resize knobs and the
// members-aware trainer factory the resize runner tests share.
func resizeRunner(ds *coreDataset, rank, world, epochs, every int, dir string, cands []string) RunnerConfig {
	return RunnerConfig{
		Config: Config{
			Dir: dir, Every: every, Epochs: epochs, MaxRecoveries: 4,
			ResizeAfter: tResize, electionStagger: tStagger, rendezvousRound: tRound,
		},
		Rank:       rank,
		World:      world,
		Candidates: cands,
		Timeout:    30 * time.Second,
		NewTrainer: ds.factory,
	}
}

// coreDataset bundles a fixture with its members-aware factory so the runner
// tests can pass one handle around.
type coreDataset struct {
	factory func(members []int, slot int) (*core.RankTrainer, error)
}

// TestRunnerResizeShrinkDeterminism is the tentpole's bit-exactness pin for
// the permanent-loss path: world 3 loses rank 2 for good at epoch 3, the two
// survivors elect k'=2, fold slot 2's rows into their own partitions, and
// train to completion. Two full repeats of the same scenario must finish with
// bit-identical weights — the shrink election, the checkpoint consensus, the
// repartition, and the resumed RNG streams are all deterministic.
func TestRunnerResizeShrinkDeterminism(t *testing.T) {
	const world, epochs, every, stopAfter = 3, 8, 2, 3
	before := goroutineStacks()

	run := func() (hashes [2]string, reps [2]Report) {
		ds, parts, topo, cfg := testFixtureParts(t, world)
		fx := &coreDataset{factory: MemberTrainerFactory(ds, parts, topo, cfg, world)}
		dir := t.TempDir()
		cands := freeCandidates(t, world)

		type result struct {
			rt  *core.RankTrainer
			rep Report
			err error
		}
		done := make([]chan result, 2)
		for r := 0; r < 2; r++ {
			done[r] = make(chan result, 1)
			go func(r int) {
				rt, rep, err := Run(resizeRunner(fx, r, world, epochs, every, dir, cands))
				done[r] <- result{rt, rep, err}
			}(r)
		}
		runVictim(t, ds, topo, cfg, 2, world, cands, dir, every, stopAfter)
		for r := 0; r < 2; r++ {
			res := <-done[r]
			if res.err != nil {
				t.Fatalf("survivor rank %d: %v (report %+v)", r, res.err, res.rep)
			}
			if res.rt.Epoch() != epochs {
				t.Fatalf("survivor rank %d finished at epoch %d, want %d", r, res.rt.Epoch(), epochs)
			}
			hashes[r], reps[r] = paramHash(res.rt.Model), res.rep
		}
		return hashes, reps
	}

	h1, reps := run()
	if h1[0] != h1[1] {
		t.Fatalf("survivors diverged on the shrunken world: %s vs %s", h1[0], h1[1])
	}
	for r, rep := range reps {
		if len(rep.Worlds) < 2 || !reflect.DeepEqual(rep.Worlds[0], []int{0, 1, 2}) {
			t.Fatalf("rank %d worlds %v: want a full-strength start then a shrink", r, rep.Worlds)
		}
		if last := rep.Worlds[len(rep.Worlds)-1]; !reflect.DeepEqual(last, []int{0, 1}) {
			t.Fatalf("rank %d final world %v, want the two survivors [0 1]", r, last)
		}
		if rep.Recoveries < 1 {
			t.Fatalf("rank %d absorbed no recovery", r)
		}
	}

	h2, _ := run()
	if h1[0] != h2[0] {
		t.Fatalf("k'=2 run is not deterministic across repeats: %s vs %s", h1[0], h2[0])
	}
	waitNoLeaks(t, before)
}

// TestRunnerResizeGrowBack closes the loop: shrink at epoch 3, train at k'=2,
// then a late replacement knocks on the growth listener mid-training. The
// survivors must abort the small mesh, re-rendezvous at full strength with
// the replacement (which loads the generation the shrunken cohort wrote),
// shed the absorbed rows back, and finish — all three ranks with identical
// replicas.
func TestRunnerResizeGrowBack(t *testing.T) {
	const world, epochs, every, stopAfter, holdEpoch = 3, 8, 2, 3, 5
	before := goroutineStacks()
	ds, parts, topo, cfg := testFixtureParts(t, world)
	fx := &coreDataset{factory: MemberTrainerFactory(ds, parts, topo, cfg, world)}
	dir := t.TempDir()
	cands := freeCandidates(t, world)

	// The survivors park at holdEpoch (inside the shrunken generation) until
	// the replacement's knock arrives, so the grow-back provably lands while
	// k'=2 training is in flight, not after it finished. growSignal fires in
	// the watcher before the mesh abort; closing release there lets the held
	// survivors run straight into the abort.
	release := make(chan struct{})
	held := make(chan int, 2*world)
	var releaseOnce sync.Once
	growSignal = func(owner, joiner int) {
		releaseOnce.Do(func() { close(release) })
	}
	defer func() { growSignal = nil }()

	type result struct {
		rt  *core.RankTrainer
		rep Report
		err error
	}
	mkSurvivor := func(r int) RunnerConfig {
		rc := resizeRunner(fx, r, world, epochs, every, dir, cands)
		rc.OnEpoch = func(rt *core.RankTrainer, _ *comm.Worker, _ core.RankStats) error {
			if rt.Epoch() == holdEpoch {
				select {
				case held <- r:
				default:
				}
				<-release
			}
			return nil
		}
		return rc
	}
	done := make([]chan result, 2)
	for r := 0; r < 2; r++ {
		done[r] = make(chan result, 1)
		go func(r int) {
			rt, rep, err := Run(mkSurvivor(r))
			done[r] <- result{rt, rep, err}
		}(r)
	}
	runVictim(t, ds, topo, cfg, 2, world, cands, dir, every, stopAfter)

	// Both survivors must reach holdEpoch on the shrunken world before the
	// replacement is launched.
	for i := 0; i < 2; i++ {
		select {
		case <-held:
		case <-time.After(60 * time.Second):
			t.Fatal("survivors never reached the hold epoch on the shrunken world")
		}
	}
	rc2 := resizeRunner(fx, 2, world, epochs, every, dir, cands)
	rc2.Rejoin = true
	rt2, rep2, err := Run(rc2)
	if err != nil {
		t.Fatalf("replacement rank 2: %v (report %+v)", err, rep2)
	}

	finals := []*core.RankTrainer{nil, nil, rt2}
	reps := []Report{{}, {}, rep2}
	for r := 0; r < 2; r++ {
		res := <-done[r]
		if res.err != nil {
			t.Fatalf("survivor rank %d: %v (report %+v)", r, res.err, res.rep)
		}
		finals[r], reps[r] = res.rt, res.rep
	}

	want := paramHash(finals[0].Model)
	for r, rt := range finals {
		if rt.Epoch() != epochs {
			t.Fatalf("rank %d finished at epoch %d, want %d", r, rt.Epoch(), epochs)
		}
		if got := paramHash(rt.Model); got != want {
			t.Fatalf("rank %d replica %s != rank 0 replica %s after grow-back", r, got, want)
		}
	}
	for r := 0; r < 2; r++ {
		shrunk := false
		for _, m := range reps[r].Worlds {
			if reflect.DeepEqual(m, []int{0, 1}) {
				shrunk = true
			}
		}
		if !shrunk {
			t.Fatalf("survivor %d never trained on the shrunken world: %v", r, reps[r].Worlds)
		}
		if last := reps[r].Worlds[len(reps[r].Worlds)-1]; !reflect.DeepEqual(last, []int{0, 1, 2}) {
			t.Fatalf("survivor %d final world %v, want full strength after grow-back", r, last)
		}
	}
	if last := rep2.Worlds[len(rep2.Worlds)-1]; !reflect.DeepEqual(last, []int{0, 1, 2}) {
		t.Fatalf("replacement final world %v, want full strength", rep2.Worlds)
	}
	waitNoLeaks(t, before)
}

// TestRunnerResizeDoubleDeathShrinksToTwo: world 4 loses ranks 2 AND 3 at the
// same epoch boundary.
// The stable roster is the two survivors, who must shrink straight to k'=2
// (the multi-dead repartition path) and finish in agreement.
func TestRunnerResizeDoubleDeathShrinksToTwo(t *testing.T) {
	const world, epochs, every, stopAfter = 4, 8, 2, 3
	before := goroutineStacks()
	ds, parts, topo, cfg := testFixtureParts(t, world)
	fx := &coreDataset{factory: MemberTrainerFactory(ds, parts, topo, cfg, world)}
	dir := t.TempDir()
	cands := freeCandidates(t, world)

	type result struct {
		rt  *core.RankTrainer
		rep Report
		err error
	}
	done := make([]chan result, 2)
	for r := 0; r < 2; r++ {
		done[r] = make(chan result, 1)
		go func(r int) {
			rt, rep, err := Run(resizeRunner(fx, r, world, epochs, every, dir, cands))
			done[r] <- result{rt, rep, err}
		}(r)
	}
	// Both victims finish their last epoch before either tears its transport
	// down: killed from independent goroutines, the faster victim's death
	// would land inside the slower one's final AllReduce and the victim
	// itself would report a lost peer.
	var vwg sync.WaitGroup
	var victims [2]*comm.TCPTransport
	for v := 2; v < 4; v++ {
		vwg.Add(1)
		go func(v int) {
			defer vwg.Done()
			victims[v-2] = trainVictim(t, ds, topo, cfg, v, world, cands, dir, every, stopAfter)
		}(v)
	}
	vwg.Wait()
	for _, tp := range victims {
		killVictim(tp)
	}

	var hashes [2]string
	for r := 0; r < 2; r++ {
		res := <-done[r]
		if res.err != nil {
			t.Fatalf("survivor rank %d: %v (report %+v)", r, res.err, res.rep)
		}
		if res.rt.Epoch() != epochs {
			t.Fatalf("survivor rank %d finished at epoch %d, want %d", r, res.rt.Epoch(), epochs)
		}
		hashes[r] = paramHash(res.rt.Model)
		if last := res.rep.Worlds[len(res.rep.Worlds)-1]; !reflect.DeepEqual(last, []int{0, 1}) {
			t.Fatalf("survivor %d final world %v, want [0 1]", r, last)
		}
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("survivors diverged after the double shrink: %s vs %s", hashes[0], hashes[1])
	}
	waitNoLeaks(t, before)
}

// TestRunnerResizeLoneSurvivorFailsPointedly: when the double fault leaves a
// single rank alive, it must NOT deadlock waiting and must NOT self-elect —
// it times out with the lone-survivor error, goroutine-clean.
func TestRunnerResizeLoneSurvivorFailsPointedly(t *testing.T) {
	const world, epochs, every, stopAfter = 2, 8, 2, 3
	before := goroutineStacks()
	ds, parts, topo, cfg := testFixtureParts(t, world)
	fx := &coreDataset{factory: MemberTrainerFactory(ds, parts, topo, cfg, world)}
	dir := t.TempDir()
	cands := freeCandidates(t, world)

	rc := resizeRunner(fx, 0, world, epochs, every, dir, cands)
	rc.Timeout = 3 * time.Second
	done := make(chan error, 1)
	go func() {
		_, _, err := Run(rc)
		done <- err
	}()
	runVictim(t, ds, topo, cfg, 1, world, cands, dir, every, stopAfter)

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("lone survivor claims to have finished a world-2 run alone")
		}
		if !strings.Contains(err.Error(), "lone survivor") || !strings.Contains(err.Error(), dir) {
			t.Fatalf("lone survivor's error does not name the situation and its checkpoint directory: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("lone survivor deadlocked instead of timing out")
	}
	waitNoLeaks(t, before)
}

// TestSupervisorResizeShrinkGrowMatrix is the in-process chaos matrix over
// both transports and k ∈ {3, 4}: generation 0 trains at full strength until
// slot k−1 is killed at the epoch-3 boundary; generation 1 trains SHRUNKEN
// (the survivors absorb the dead slot's rows) until a second kill at epoch 5
// stands in for the replacement's admit knock; generation 2 is back at full
// strength, with the re-admitted slot loading the shrunken cohort's
// generation. The run must be bit-identical across repeats and across
// transports, every replica must agree, and the final loss must sit within the documented tolerance of
// an uninterrupted run (exact weight equality is forfeited the moment any
// epoch trains at k': the boundary-sampling streams differ by construction —
// see PERFORMANCE.md, "World resizing").
func TestSupervisorResizeShrinkGrowMatrix(t *testing.T) {
	const epochs, every = 8, 2
	type outcome struct {
		hash      string
		finalLoss float64
		rep       Report
	}
	runScript := func(t *testing.T, backend string, k int) outcome {
		ds, parts, topo, cfg := testFixtureParts(t, k)
		shrunken := fullMembers(k)[:k-1]
		var mu sync.Mutex
		var lossSum float64
		sup := &Supervisor{
			Cfg: Config{Dir: t.TempDir(), Every: every, Epochs: epochs, MaxRecoveries: 2},
			Members: func(gen int) []int {
				if gen == 1 {
					return shrunken
				}
				return nil
			},
			NewTrainer: MemberTrainerFactory(ds, parts, topo, cfg, k),
			NewGroup: func(gen int) (*comm.Group, error) {
				size := k
				if gen == 1 {
					size = k - 1
				}
				var g *comm.Group
				var err error
				if backend == "tcp" {
					g, err = tcpGroup(t, size)
					if err != nil {
						return nil, err
					}
				} else {
					g = comm.New(size, 0)
				}
				switch gen {
				case 0:
					g = comm.WithFaults(g, comm.KillAtEpoch(k-1, 3))
				case 1:
					g = comm.WithFaults(g, comm.KillAtEpoch(0, 5))
				}
				return g, nil
			},
			// RankStats.Loss is each rank's contribution to the global loss;
			// summing the final epoch's contributions across ranks yields the
			// global training loss the reference reports.
			OnEpoch: func(rt *core.RankTrainer, _ *comm.Worker, st core.RankStats) error {
				if rt.Epoch() == epochs {
					mu.Lock()
					lossSum += st.Loss
					mu.Unlock()
				}
				return nil
			},
		}
		trainers, rep, err := sup.Run()
		if err != nil {
			t.Fatalf("%s/k%d: %v (report %+v)", backend, k, err, rep)
		}
		want := paramHash(trainers[0].Model)
		for r, rt := range trainers {
			if rt.Epoch() != epochs {
				t.Fatalf("%s/k%d: rank %d at epoch %d, want %d", backend, k, r, rt.Epoch(), epochs)
			}
			if got := paramHash(rt.Model); got != want {
				t.Fatalf("%s/k%d: rank %d replica %s != rank 0 %s", backend, k, r, got, want)
			}
		}
		return outcome{hash: want, finalLoss: lossSum, rep: rep}
	}

	for _, k := range []int{3, 4} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			before := goroutineStacks()
			chan1 := runScript(t, "chan", k)
			chan2 := runScript(t, "chan", k)
			tcp1 := runScript(t, "tcp", k)

			if chan1.hash != chan2.hash {
				t.Fatalf("shrink-grow run not deterministic across repeats: %s vs %s", chan1.hash, chan2.hash)
			}
			if chan1.hash != tcp1.hash {
				t.Fatalf("chan and tcp transports diverged: %s vs %s", chan1.hash, tcp1.hash)
			}
			// The scripted lifecycle: full → shrunken → full, resuming 0/1/2.
			sizes := make([]int, len(chan1.rep.Worlds))
			for i, m := range chan1.rep.Worlds {
				sizes[i] = len(m)
			}
			if !reflect.DeepEqual(sizes, []int{k, k - 1, k}) {
				t.Fatalf("world sizes %v, want [%d %d %d]", sizes, k, k-1, k)
			}
			if !reflect.DeepEqual(chan1.rep.StartGens, []int{0, 1, 2}) {
				t.Fatalf("start generations %v, want [0 1 2]", chan1.rep.StartGens)
			}
			if !reflect.DeepEqual(chan1.rep.Worlds[1], fullMembers(k)[:k-1]) {
				t.Fatalf("shrunken generation members %v, want %v", chan1.rep.Worlds[1], fullMembers(k)[:k-1])
			}

			// Loss tolerance vs the uninterrupted reference: the k' epochs
			// sample boundary nodes from different streams, so trajectories
			// diverge in the weights but must land at an equivalent loss.
			// The 25% relative band is documented in PERFORMANCE.md; observed
			// gaps are far smaller.
			ref := referenceFinalLoss(t, k, epochs)
			if diff := math.Abs(chan1.finalLoss - ref); diff > 0.25*math.Max(ref, 1e-6) {
				t.Fatalf("final loss %.6f strayed %.6f from uninterrupted reference %.6f (>25%%)", chan1.finalLoss, diff, ref)
			} else {
				t.Logf("k=%d final loss %.6f vs reference %.6f (|diff| %.6f)", k, chan1.finalLoss, ref, diff)
			}
			waitNoLeaks(t, before)
		})
	}
}

// referenceFinalLoss trains the fixture straight through and returns the
// final epoch's global loss.
func referenceFinalLoss(t testing.TB, k, epochs int) float64 {
	t.Helper()
	ds, topo, cfg := testFixture(t, k)
	ref, err := core.NewParallelTrainer(ds, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for e := 0; e < epochs; e++ {
		last = ref.TrainEpoch().Loss
	}
	return last
}

// TestSupervisorResizeDoubleFault: the second rank dies while the world is
// already shrunken — k=4 goes to 3 at epoch 3, then to 2 at epoch 5, and
// stays there. Both transports, both replicas in agreement, goroutine-clean.
func TestSupervisorResizeDoubleFault(t *testing.T) {
	const k, epochs, every = 4, 8, 2
	for _, backend := range []string{"chan", "tcp"} {
		t.Run(backend, func(t *testing.T) {
			before := goroutineStacks()
			ds, parts, topo, cfg := testFixtureParts(t, k)
			members := map[int][]int{1: {0, 1, 2}, 2: {0, 1}}
			sup := &Supervisor{
				Cfg: Config{Dir: t.TempDir(), Every: every, Epochs: epochs, MaxRecoveries: 2},
				Members: func(gen int) []int {
					if m, ok := members[gen]; ok {
						return m
					}
					if gen > 2 {
						return []int{0, 1}
					}
					return nil
				},
				NewTrainer: MemberTrainerFactory(ds, parts, topo, cfg, k),
				NewGroup: func(gen int) (*comm.Group, error) {
					size := k
					if m, ok := members[gen]; ok {
						size = len(m)
					} else if gen > 2 {
						size = 2
					}
					var g *comm.Group
					var err error
					if backend == "tcp" {
						g, err = tcpGroup(t, size)
						if err != nil {
							return nil, err
						}
					} else {
						g = comm.New(size, 0)
					}
					switch gen {
					case 0:
						g = comm.WithFaults(g, comm.KillAtEpoch(k-1, 3))
					case 1:
						g = comm.WithFaults(g, comm.KillAtEpoch(2, 5))
					}
					return g, nil
				},
			}
			trainers, rep, err := sup.Run()
			if err != nil {
				t.Fatalf("double fault not absorbed: %v (report %+v)", err, rep)
			}
			if rep.Recoveries != 2 {
				t.Fatalf("absorbed %d recoveries, want 2 (%v)", rep.Recoveries, rep.Failures)
			}
			for _, f := range rep.Failures {
				var inj *comm.InjectedFault
				if !errors.As(f, &inj) {
					t.Fatalf("recorded failure %v does not wrap an injected fault", f)
				}
			}
			want := paramHash(trainers[0].Model)
			for r, rt := range trainers {
				if rt.Epoch() != epochs {
					t.Fatalf("rank %d at epoch %d, want %d", r, rt.Epoch(), epochs)
				}
				if got := paramHash(rt.Model); got != want {
					t.Fatalf("rank %d replica %s != rank 0 %s", r, got, want)
				}
			}
			sizes := make([]int, len(rep.Worlds))
			for i, m := range rep.Worlds {
				sizes[i] = len(m)
			}
			if !reflect.DeepEqual(sizes, []int{4, 3, 2}) {
				t.Fatalf("world sizes %v, want [4 3 2]", sizes)
			}
			waitNoLeaks(t, before)
		})
	}
}
