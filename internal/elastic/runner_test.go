package elastic

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/datagen"
)

// trainVictim joins the cohort like a real rank, trains until stopAfter
// epochs are complete, and returns its still-open transport (nil if it
// failed before getting one). The caller kills it.
func trainVictim(t *testing.T, ds *datagen.Dataset, topo *core.Topology, cfg core.ParallelConfig,
	rank, world int, cands []string, dir string, every, stopAfter int) *comm.TCPTransport {
	t.Helper()
	dataLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Error(err)
		return nil
	}
	tbl, err := bootstrap(bootConfig{
		rank: rank, world: world, cands: cands, dataAddr: dataLn.Addr().String(),
		myGen: LatestValidGen(dir), deadline: time.Now().Add(30 * time.Second),
	})
	if err != nil {
		dataLn.Close()
		t.Errorf("victim bootstrap: %v", err)
		return nil
	}
	tp, err := comm.DialTCPMesh(comm.TCPConfig{
		Rank: indexOf(tbl.Members, rank), World: len(tbl.Members), ListenHost: "127.0.0.1", Timeout: 30 * time.Second,
	}, dataLn, tbl.Addrs)
	if err != nil {
		t.Errorf("victim mesh: %v", err)
		return nil
	}
	rt, err := core.NewRankTrainer(ds, topo, cfg, rank)
	if err == nil {
		err = LoadGeneration(dir, tbl.StartGen, rt)
	}
	if err == nil {
		err = trainRank(&Config{Dir: dir, Every: every, Epochs: stopAfter}, rt, comm.NewWorker(tp), tbl.StartGen, nil)
	}
	if err != nil {
		t.Errorf("victim rank %d: %v", rank, err)
	}
	return tp
}

// killVictim abandons the cohort without ceremony — the in-process stand-in
// for SIGKILL. Abort poisons the peers exactly the way a dead process's
// closed sockets would; the extra Close only reaps this process's goroutines
// so the leak check stays meaningful.
func killVictim(tp *comm.TCPTransport) {
	if tp != nil {
		tp.Abort()
		tp.Close()
	}
}

// runVictim is one rank's whole life: join, train stopAfter epochs, die.
func runVictim(t *testing.T, ds *datagen.Dataset, topo *core.Topology, cfg core.ParallelConfig,
	rank, world int, cands []string, dir string, every, stopAfter int) {
	t.Helper()
	killVictim(trainVictim(t, ds, topo, cfg, rank, world, cands, dir, every, stopAfter))
}

// TestRunnerRecoversAndReadmitsReplacement exercises the full per-process
// elastic loop end to end, in-process: rank 0 runs elastic.Run; rank 1
// joins, trains 3 of 8 epochs, and dies mid-cohort; a replacement rank 1
// then runs elastic.Run against the same checkpoint directory — the -join
// path. Rank 0 must absorb exactly one recovery, the cohort must agree to
// resume from generation 1 (epoch 2, the newest state both ranks hold), and
// both finishers' weights must equal the uninterrupted reference bit for
// bit.
func TestRunnerRecoversAndReadmitsReplacement(t *testing.T) {
	const world, epochs, every, stopAfter = 2, 8, 2, 3
	before := goroutineStacks()
	ds, topo, cfg := testFixture(t, world)
	dir := t.TempDir()
	cands := freeCandidates(t, world)

	mkRunner := func(rank int) RunnerConfig {
		return RunnerConfig{
			Config:     Config{Dir: dir, Every: every, Epochs: epochs, MaxRecoveries: 2},
			Rank:       rank,
			World:      world,
			Candidates: cands,
			Timeout:    30 * time.Second,
			NewTrainer: func(_ []int, slot int) (*core.RankTrainer, error) {
				return core.NewRankTrainer(ds, topo, cfg, slot)
			},
		}
	}

	type result struct {
		rt  *core.RankTrainer
		rep Report
		err error
	}
	r0done := make(chan result, 1)
	go func() {
		rt, rep, err := Run(mkRunner(0))
		r0done <- result{rt, rep, err}
	}()

	runVictim(t, ds, topo, cfg, 1, world, cands, dir, every, stopAfter)

	// The replacement is started only after the victim is fully gone —
	// exactly like an operator restarting the dead rank's process.
	rt1, rep1, err := Run(mkRunner(1))
	if err != nil {
		t.Fatalf("replacement rank 1: %v (report %+v)", err, rep1)
	}
	r0 := <-r0done
	if r0.err != nil {
		t.Fatalf("rank 0: %v (report %+v)", r0.err, r0.rep)
	}

	if r0.rep.Recoveries != 1 {
		t.Fatalf("rank 0 absorbed %d recoveries, want 1 (%v)", r0.rep.Recoveries, r0.rep.Failures)
	}
	if !recoverable(r0.rep.Failures[0]) {
		t.Fatalf("rank 0's recorded failure %v is not a transport death", r0.rep.Failures[0])
	}
	if n := len(r0.rep.StartGens); n == 0 || r0.rep.StartGens[0] != 0 || r0.rep.StartGens[n-1] != 1 {
		t.Fatalf("rank 0 start generations %v: want a fresh start then a gen-1 resume", r0.rep.StartGens)
	}
	if rep1.Recoveries != 0 {
		t.Fatalf("replacement absorbed %d recoveries, want 0", rep1.Recoveries)
	}
	if n := len(rep1.StartGens); n != 1 || rep1.StartGens[0] != 1 {
		t.Fatalf("replacement start generations %v: want exactly one gen-1 resume", rep1.StartGens)
	}

	want := referenceHash(t, world, epochs)
	for _, fin := range []struct {
		name string
		rt   *core.RankTrainer
	}{{"rank 0", r0.rt}, {"replacement rank 1", rt1}} {
		if fin.rt.Epoch() != epochs {
			t.Fatalf("%s finished at epoch %d, want %d", fin.name, fin.rt.Epoch(), epochs)
		}
		if got := paramHash(fin.rt.Model); got != want {
			t.Fatalf("%s: recovered weights %s != uninterrupted reference %s", fin.name, got, want)
		}
	}
	waitNoLeaks(t, before)
}

// TestRunnerRejectsBadConfig: config validation fires before any sockets,
// and a negative count is refused by name rather than read as another
// setting.
func TestRunnerRejectsBadConfig(t *testing.T) {
	if _, _, err := Run(RunnerConfig{Config: Config{Dir: "", Every: 1, Epochs: 1}}); err == nil {
		t.Fatal("empty checkpoint dir accepted")
	}
	if _, _, err := Run(RunnerConfig{Config: Config{Dir: t.TempDir(), Every: 0, Epochs: 1}}); err == nil {
		t.Fatal("zero checkpoint cadence accepted")
	}
	if _, _, err := Run(RunnerConfig{Config: Config{Dir: t.TempDir(), Every: 1, Epochs: 1, KeepGenerations: -1}}); err == nil || !strings.Contains(err.Error(), "negative KeepGenerations -1") {
		t.Fatalf("negative KeepGenerations: want it refused by name, got %v", err)
	}
	if _, _, err := Run(RunnerConfig{Config: Config{Dir: t.TempDir(), Every: 1, Epochs: 1, MaxRecoveries: -1}}); err == nil || !strings.Contains(err.Error(), "negative MaxRecoveries -1") {
		t.Fatalf("negative MaxRecoveries: want it refused by name, got %v", err)
	}
}
