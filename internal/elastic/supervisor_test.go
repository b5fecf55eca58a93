package elastic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/partition"
)

// The recovery bit-exactness matrix: train(N) with a kill injected at a
// deterministic point, recover, and demand the final weights equal an
// uninterrupted train(N) bit for bit — over both backends, k ∈ {2,4},
// kills at an epoch boundary (rank 0 dies) and mid-epoch (rank k−1 dies
// between two halo sends). The config keeps dropout and boundary sampling
// on so every piece of checkpointed state matters.

func testFixture(t testing.TB, k int) (*datagen.Dataset, *core.Topology, core.ParallelConfig) {
	t.Helper()
	ds, _, topo, cfg := testFixtureParts(t, k)
	return ds, topo, cfg
}

// testFixtureParts additionally exposes the METIS assignment, which the
// resize tests need to fold dead slots' rows into the survivors.
func testFixtureParts(t testing.TB, k int) (*datagen.Dataset, []int32, *core.Topology, core.ParallelConfig) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Name: "elastic-test", Nodes: 300, Communities: 4, AvgDegree: 8,
		IntraFrac: 0.8, DegreeSkew: 2.0, FeatureDim: 8,
		FeatureSignal: 0.5, FeatureNoise: 1.0,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := (&partition.Metis{Seed: 1}).Partition(ds.G, k)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := core.BuildTopology(ds.G, parts, k)
	if err != nil {
		t.Fatal(err)
	}
	mc := core.ModelConfig{Arch: core.ArchSAGE, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 5}
	return ds, parts, topo, core.ParallelConfig{Model: mc, P: 0.5, SampleSeed: 11}
}

func paramHash(m *core.Model) string {
	h := sha256.New()
	for _, v := range m.ParamVector() {
		binary.Write(h, binary.LittleEndian, math.Float32bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// referenceHash trains the same configuration straight through in-process
// and hashes the (replica-identical) final weights.
func referenceHash(t testing.TB, k, epochs int) string {
	t.Helper()
	ds, topo, cfg := testFixture(t, k)
	ref, err := core.NewParallelTrainer(ds, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		ref.TrainEpoch()
	}
	return paramHash(ref.Models[0])
}

// tcpGroup bootstraps a k-rank loopback TCP group (no cleanup registration:
// the supervisor owns and closes the groups it gets).
func tcpGroup(t testing.TB, k int) (*comm.Group, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ts := make([]comm.Transport, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := comm.TCPConfig{Rank: r, World: k, Rendezvous: ln.Addr().String(), Timeout: 10 * time.Second}
			if r == 0 {
				cfg.RendezvousListener = ln
			}
			ts[r], errs[r] = comm.DialTCP(cfg)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return comm.NewGroup(ts), nil
}

// persistentPools names the goroutines that, once started, live for the
// process: whenever one first starts, it is not a leak. Matched against the
// goroutine's stack.
var persistentPools = []string{
	// The tensor kernel worker pool: started lazily by the first parallel
	// kernel call, so only when GOMAXPROCS > 1.
	"repro/internal/tensor.startWorkers",
}

// goroutineStacks snapshots the live goroutines: id → stack.
func goroutineStacks() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		stacks[id] = g
	}
	return stacks
}

// waitNoLeaks waits for every goroutine started since the before snapshot to
// exit, the persistent pools excepted, and fails with the stacks of those
// that outlive the deadline. Diffing stacks rather than counting goroutines
// keeps the check exact at every GOMAXPROCS.
func waitNoLeaks(t *testing.T, before map[string]string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var leaked []string
	scan:
		for id, stack := range goroutineStacks() {
			if _, ok := before[id]; ok {
				continue
			}
			for _, pool := range persistentPools {
				if strings.Contains(stack, pool) {
					continue scan
				}
			}
			leaked = append(leaked, stack)
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines outlived the run:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSupervisorBitExactRecovery(t *testing.T) {
	const epochs, every = 8, 2
	for _, backend := range []string{"chan", "tcp"} {
		for _, k := range []int{2, 4} {
			for _, kill := range []struct {
				name string
				plan comm.FaultPlan
			}{
				// Rank 0 dies at the epoch-5 boundary: the recovery must
				// re-admit the "replacement" rank 0 and fall back to gen 2
				// (epoch 4), discarding epoch 4's... nothing — 4 is saved —
				// and replaying epoch 4 onward.
				{"rank0-at-epoch5", comm.KillAtEpoch(0, 5)},
				// Rank k−1 dies mid-epoch, between two payload sends:
				// partially exchanged halo state must be thrown away and the
				// epoch replayed from the last complete generation.
				{"lastrank-mid-epoch", comm.KillAtMessage(0, 0)}, // placeholder, fixed below
			} {
				t.Run(backend+"/k"+string(rune('0'+k))+"/"+kill.name, func(t *testing.T) {
					before := goroutineStacks()
					ds, topo, cfg := testFixture(t, k)
					if kill.name == "lastrank-mid-epoch" {
						// Aim the kill at the middle of epoch 2: measure one
						// epoch's per-rank send count and take 2.5× of it.
						probeG := comm.New(k, 0)
						probe, err := core.NewParallelTrainerOver(ds, topo, cfg, probeG)
						if err != nil {
							t.Fatal(err)
						}
						probe.TrainEpoch()
						m := probeG.MessagesSent(k - 1)
						kill.plan = comm.KillAtMessage(k-1, int(m*2+m/2))
					}
					dir := t.TempDir()
					sup := &Supervisor{
						Cfg: Config{Dir: dir, Every: every, Epochs: epochs, MaxRecoveries: 1},
						NewTrainer: func(_ []int, rank int) (*core.RankTrainer, error) {
							return core.NewRankTrainer(ds, topo, cfg, rank)
						},
						NewGroup: func(gen int) (*comm.Group, error) {
							var g *comm.Group
							var err error
							if backend == "tcp" {
								g, err = tcpGroup(t, k)
							} else {
								g = comm.New(k, 0)
							}
							if err != nil {
								return nil, err
							}
							if gen == 0 {
								g = comm.WithFaults(g, kill.plan)
							}
							return g, nil
						},
					}
					trainers, rep, err := sup.Run()
					if err != nil {
						t.Fatalf("supervisor did not recover: %v (report %+v)", err, rep)
					}
					if rep.Recoveries != 1 {
						t.Fatalf("expected exactly 1 recovery, got %d (%v)", rep.Recoveries, rep.Failures)
					}
					var inj *comm.InjectedFault
					if !errors.As(rep.Failures[0], &inj) {
						t.Fatalf("recorded failure %v does not wrap the injected fault", rep.Failures[0])
					}
					if rep.StartGens[0] != 0 || rep.StartGens[1] <= 0 {
						t.Fatalf("start generations %v: want fresh start then a positive resume gen", rep.StartGens)
					}
					want := referenceHash(t, k, epochs)
					for r, rt := range trainers {
						if rt.Epoch() != epochs {
							t.Fatalf("rank %d finished at epoch %d, want %d", r, rt.Epoch(), epochs)
						}
						if got := paramHash(rt.Model); got != want {
							t.Fatalf("rank %d: recovered weights %s != uninterrupted reference %s", r, got, want)
						}
					}
					waitNoLeaks(t, before)
				})
			}
		}
	}
}

// TestSupervisorSurvivesRandomSeededKills is the chaos matrix CI runs: each
// rank in turn dies at a seeded pseudo-random epoch; every run must recover
// to the bit-exact reference.
func TestSupervisorSurvivesRandomSeededKills(t *testing.T) {
	const k, epochs, every = 3, 6, 2
	want := referenceHash(t, k, epochs)
	seed := uint64(0x9E3779B97F4A7C15)
	for victim := 0; victim < k; victim++ {
		// Deterministic "random" epoch in [1, epochs-1].
		seed = seed*6364136223846793005 + 1442695040888963407
		atEpoch := 1 + int((seed>>33)%uint64(epochs-1))
		ds, topo, cfg := testFixture(t, k)
		sup := &Supervisor{
			Cfg: Config{Dir: t.TempDir(), Every: every, Epochs: epochs, MaxRecoveries: 1},
			NewTrainer: func(_ []int, rank int) (*core.RankTrainer, error) {
				return core.NewRankTrainer(ds, topo, cfg, rank)
			},
			NewGroup: func(gen int) (*comm.Group, error) {
				g := comm.New(k, 0)
				if gen == 0 {
					g = comm.WithFaults(g, comm.KillAtEpoch(victim, atEpoch))
				}
				return g, nil
			},
		}
		trainers, rep, err := sup.Run()
		if err != nil {
			t.Fatalf("victim %d at epoch %d: %v", victim, atEpoch, err)
		}
		if rep.Recoveries != 1 {
			t.Fatalf("victim %d at epoch %d: %d recoveries", victim, atEpoch, rep.Recoveries)
		}
		for r, rt := range trainers {
			if got := paramHash(rt.Model); got != want {
				t.Fatalf("victim %d at epoch %d: rank %d weights diverged", victim, atEpoch, r)
			}
		}
	}
}

// TestSupervisorAbsorbsEvaluationFailure: an epoch hook that scores the model
// on every rank is part of the protocol the elastic loop protects. A rank
// killed between two halo sends of the evaluation after epoch 3 costs one
// recovery — every rank's hook returns an error carrying the transport
// failure, none panics or hangs — and the run resumes from generation 1 to
// the uninterrupted run's weights and test score, bit for bit.
func TestSupervisorAbsorbsEvaluationFailure(t *testing.T) {
	const k, epochs, every, victim = 3, 6, 2, 1
	before := goroutineStacks()
	ds, topo, cfg := testFixture(t, k)

	// The uninterrupted run, evaluating where the hook does; it also says
	// where in the victim's send sequence the third evaluation lies.
	ref, err := core.NewParallelTrainer(ds, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var killAt int
	var wantScore float64
	for e := 1; e <= epochs; e++ {
		ref.TrainEpoch()
		sent := ref.Cluster.MessagesSent(victim)
		wantScore = ref.Evaluate(ds.TestMask)
		if e == 3 {
			killAt = int(sent + (ref.Cluster.MessagesSent(victim)-sent)/2)
		}
	}

	scores := make([]float64, k) // each rank's last evaluation
	sup := &Supervisor{
		Cfg: Config{Dir: t.TempDir(), Every: every, Epochs: epochs, MaxRecoveries: 1},
		NewTrainer: func(_ []int, rank int) (*core.RankTrainer, error) {
			return core.NewRankTrainer(ds, topo, cfg, rank)
		},
		NewGroup: func(gen int) (*comm.Group, error) {
			g := comm.New(k, 0)
			if gen == 0 {
				g = comm.WithFaults(g, comm.KillAtMessage(victim, killAt))
			}
			return g, nil
		},
		OnEpoch: func(rt *core.RankTrainer, w *comm.Worker, _ core.RankStats) (err error) {
			scores[rt.Rank], err = rt.Evaluate(w, ds.TestMask)
			return err
		},
	}
	trainers, rep, err := sup.Run()
	if err != nil {
		t.Fatalf("supervisor did not recover: %v (report %+v)", err, rep)
	}
	var inj *comm.InjectedFault
	if rep.Recoveries != 1 || !errors.As(rep.Failures[0], &inj) || inj.Message != killAt ||
		!strings.Contains(rep.Failures[0].Error(), "evaluation after epoch 3") {
		t.Fatalf("want one recovery, from the fault injected at message %d of the evaluation after epoch 3; got %d: %v", killAt, rep.Recoveries, rep.Failures)
	}
	if len(rep.StartGens) != 2 || rep.StartGens[1] != 1 {
		t.Fatalf("start generations %v: want a fresh start, then generation 1", rep.StartGens)
	}
	want := paramHash(ref.Models[0])
	for r, rt := range trainers {
		if got := paramHash(rt.Model); rt.Epoch() != epochs || got != want {
			t.Errorf("rank %d: at epoch %d with weights %s, want epoch %d and the uninterrupted run's %s", r, rt.Epoch(), got, epochs, want)
		}
		if scores[r] != wantScore {
			t.Errorf("rank %d: final test score %v, the uninterrupted run's %v", r, scores[r], wantScore)
		}
	}
	waitNoLeaks(t, before)
}

// TestSupervisorGivesUpAfterMaxRecoveries: a fault that re-fires every
// generation exhausts the budget and surfaces the underlying error instead
// of looping forever.
func TestSupervisorGivesUpAfterMaxRecoveries(t *testing.T) {
	ds, topo, cfg := testFixture(t, 2)
	sup := &Supervisor{
		Cfg: Config{Dir: t.TempDir(), Every: 2, Epochs: 6, MaxRecoveries: 2},
		NewTrainer: func(_ []int, rank int) (*core.RankTrainer, error) {
			return core.NewRankTrainer(ds, topo, cfg, rank)
		},
		NewGroup: func(gen int) (*comm.Group, error) {
			// The fault fires in EVERY generation — an unrecoverable cohort.
			return comm.WithFaults(comm.New(2, 0), comm.KillAtEpoch(1, 0)), nil
		},
	}
	_, rep, err := sup.Run()
	if err == nil {
		t.Fatal("supervisor kept going despite a fault in every generation")
	}
	var inj *comm.InjectedFault
	if !errors.As(err, &inj) {
		t.Fatalf("final error %v does not surface the underlying fault", err)
	}
	if rep.Recoveries != sup.Cfg.MaxRecoveries+1 {
		t.Fatalf("gave up after %d recoveries, budget was %d", rep.Recoveries, sup.Cfg.MaxRecoveries)
	}
}

// TestLatestValidGenFallsBack: the generation scan skips files that fail
// verification — corrupt newest generation, orphan .tmp from a half-renamed
// save — and lands on the newest intact one.
func TestLatestValidGenFallsBack(t *testing.T) {
	ds, topo, cfg := testFixture(t, 2)
	rt, err := core.NewRankTrainer(ds, topo, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if got := LatestValidGen(dir); got != 0 {
		t.Fatalf("empty dir scanned to gen %d", got)
	}
	for g := 1; g <= 3; g++ {
		if err := SaveGeneration(dir, g, rt); err != nil {
			t.Fatal(err)
		}
	}
	if got := LatestValidGen(dir); got != 3 {
		t.Fatalf("scan found gen %d, want 3", got)
	}
	// Bit-flip the newest generation: the scan must fall back to gen 2.
	p3 := CheckpointPath(dir, 3)
	raw, err := os.ReadFile(p3)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(p3, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := LatestValidGen(dir); got != 2 {
		t.Fatalf("scan found gen %d after corrupting gen 3, want 2", got)
	}
	// A half-renamed gen 4 (.tmp only) must be invisible.
	if err := os.WriteFile(CheckpointPath(dir, 4)+".tmp", raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := LatestValidGen(dir); got != 2 {
		t.Fatalf("scan found gen %d with an orphan .tmp present, want 2", got)
	}
}
