package core

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/datagen"
	"repro/internal/partition"
)

// The multi-process smoke test re-execs this test binary once per rank (the
// standard helper-process pattern), so the 4 ranks are genuine OS processes
// exchanging frames over real loopback sockets — the deployment shape the
// TCP transport exists for. Each rank independently regenerates the dataset
// and partitioning from seeds, trains for mpEpochs, and prints a hash of its
// final weights, its per-epoch loss contributions and its per-epoch raw and
// exposed comm time; the parent asserts every rank converged to identical
// bits, that those bits match an in-process channel-backend run of the same
// configuration, and that every rank's exposed comm stayed inside its raw
// span.

const (
	mpEnvRank  = "BNSGCN_MP_RANK"
	mpEnvWorld = "BNSGCN_MP_WORLD"
	mpEnvAddr  = "BNSGCN_MP_ADDR"
	mpEnvArch  = "BNSGCN_MP_ARCH"
	mpWorld    = 4
	mpEpochs   = 3
)

func mpDataset(t testing.TB) (*datagen.Dataset, *Topology) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Name: "mp-test", Nodes: 400, Communities: 4, AvgDegree: 8,
		IntraFrac: 0.8, DegreeSkew: 2.0, FeatureDim: 8,
		FeatureSignal: 0.5, FeatureNoise: 1.0,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: 123,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := (&partition.Metis{Seed: 1}).Partition(ds.G, mpWorld)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := BuildTopology(ds.G, parts, mpWorld)
	if err != nil {
		t.Fatal(err)
	}
	return ds, topo
}

// mpConfig is the smoke test's configuration for one architecture: the
// default test model for SAGE, GAT with dropout on.
func mpConfig(arch Arch) ParallelConfig {
	mc := testModelConfig()
	if arch == ArchGAT {
		mc.Arch, mc.Dropout = ArchGAT, 0.3
	}
	return ParallelConfig{Model: mc, P: 0.5, SampleSeed: 9}
}

// durationsCSV formats durations as comma-separated nanosecond counts.
func durationsCSV(ds []time.Duration) string {
	s := make([]string, len(ds))
	for i, d := range ds {
		s[i] = strconv.FormatInt(int64(d), 10)
	}
	return strings.Join(s, ",")
}

func mpParamHash(m *Model) string {
	h := sha256.New()
	for _, v := range m.ParamVector() {
		binary.Write(h, binary.LittleEndian, math.Float32bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMultiProcessHelper is the per-rank body; it only runs when re-execed
// by TestMultiProcessLoopback or TestMultiProcessLoopbackOverlap and skips
// otherwise.
func TestMultiProcessHelper(t *testing.T) {
	rankStr := os.Getenv(mpEnvRank)
	if rankStr == "" {
		t.Skip("helper process for TestMultiProcessLoopback")
	}
	rank, _ := strconv.Atoi(rankStr)
	world, _ := strconv.Atoi(os.Getenv(mpEnvWorld))

	ds, topo := mpDataset(t)
	rt, err := NewRankTrainer(ds, topo, mpConfig(Arch(os.Getenv(mpEnvArch))), rank)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := comm.DialTCP(comm.TCPConfig{
		Rank: rank, World: world, Rendezvous: os.Getenv(mpEnvAddr), Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorker(tp)
	losses := make([]string, 0, mpEpochs)
	var raw, exposed []time.Duration
	for e := 0; e < mpEpochs; e++ {
		st, err := rt.TrainEpoch(w)
		if err != nil {
			t.Fatal(err)
		}
		// Hex float64 bits: the parent re-sums contributions exactly.
		losses = append(losses, strconv.FormatUint(math.Float64bits(st.Loss), 16))
		raw, exposed = append(raw, st.Comm), append(exposed, st.CommExposed)
	}
	w.Barrier()
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("MP-RESULT rank=%d hash=%s losses=%s comm=%s exposed=%s\n", rank, mpParamHash(rt.Model),
		strings.Join(losses, ","), durationsCSV(raw), durationsCSV(exposed))
}

// TestMultiProcessLoopback is the smoke test CI runs race-enabled: 4 ranks
// as separate OS processes over real sockets — each peer's frames landing
// whenever its process sends them, the halo drain taking peers in rank
// order — must reproduce the in-process channel backend bit for bit.
func TestMultiProcessLoopback(t *testing.T) { mpRun(t, ArchSAGE) }

// TestMultiProcessLoopbackOverlap runs the same smoke test on GAT with
// dropout on: attention reads halo rows per edge and the drain masks halo
// rows as each peer's payload is received, so the overlap over real sockets
// must still reproduce the in-process run bit for bit.
func TestMultiProcessLoopbackOverlap(t *testing.T) { mpRun(t, ArchGAT) }

func mpRun(t *testing.T, arch Arch) {
	if os.Getenv(mpEnvRank) != "" {
		t.Skip("already inside a helper process")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// Reserve a rendezvous port. The listener is closed before the children
	// start, so there is a small reuse window; losing it fails loudly, not
	// silently.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmds := make([]*exec.Cmd, mpWorld)
	outs := make([]*bytes.Buffer, mpWorld)
	for r := 0; r < mpWorld; r++ {
		cmd := exec.CommandContext(ctx, exe, "-test.run=TestMultiProcessHelper$", "-test.v")
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%d", mpEnvRank, r),
			fmt.Sprintf("%s=%d", mpEnvWorld, mpWorld),
			fmt.Sprintf("%s=%s", mpEnvAddr, addr),
			fmt.Sprintf("%s=%s", mpEnvArch, arch),
		)
		outs[r] = &bytes.Buffer{}
		cmd.Stdout = outs[r]
		cmd.Stderr = outs[r]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[r] = cmd
	}
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("rank %d process failed: %v\n%s", r, err, outs[r].String())
		}
	}

	hashes := make([]string, mpWorld)
	epochLoss := make([]float64, mpEpochs)
	for r := 0; r < mpWorld; r++ {
		sc := bufio.NewScanner(bytes.NewReader(outs[r].Bytes()))
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "MP-RESULT ") {
				continue
			}
			var rank int
			var hash, lossCSV, rawCSV, exposedCSV string
			if _, err := fmt.Sscanf(line, "MP-RESULT rank=%d hash=%s losses=%s comm=%s exposed=%s",
				&rank, &hash, &lossCSV, &rawCSV, &exposedCSV); err != nil {
				t.Fatalf("rank %d: bad result line %q: %v", r, line, err)
			}
			hashes[rank] = hash
			for e, bits := range strings.Split(lossCSV, ",") {
				u, err := strconv.ParseUint(bits, 16, 64)
				if err != nil {
					t.Fatal(err)
				}
				epochLoss[e] += math.Float64frombits(u)
			}
			raws, exposeds := strings.Split(rawCSV, ","), strings.Split(exposedCSV, ",")
			if len(raws) != mpEpochs || len(exposeds) != mpEpochs {
				t.Fatalf("rank %d: %d raw and %d exposed comm times, want %d each", rank, len(raws), len(exposeds), mpEpochs)
			}
			for e := range raws {
				raw, err1 := strconv.ParseInt(raws[e], 10, 64)
				exposed, err2 := strconv.ParseInt(exposeds[e], 10, 64)
				if err1 != nil || err2 != nil {
					t.Fatalf("rank %d: bad comm times %q / %q", rank, raws[e], exposeds[e])
				}
				if raw <= 0 {
					t.Fatalf("rank %d epoch %d: no comm span recorded", rank, e)
				}
				if exposed > raw {
					t.Fatalf("rank %d epoch %d: exposed %v exceeds raw %v", rank, e, time.Duration(exposed), time.Duration(raw))
				}
			}
		}
		if hashes[r] == "" {
			t.Fatalf("rank %d produced no MP-RESULT line:\n%s", r, outs[r].String())
		}
	}
	for r := 1; r < mpWorld; r++ {
		if hashes[r] != hashes[0] {
			t.Fatalf("replicas diverged across processes: rank 0 %s vs rank %d %s", hashes[0], r, hashes[r])
		}
	}

	// Reference run: same configuration, in-process channel backend.
	ds, topo := mpDataset(t)
	ref, err := NewParallelTrainer(ds, topo, mpConfig(arch))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < mpEpochs; e++ {
		if want := ref.TrainEpoch().Loss; want != epochLoss[e] {
			t.Fatalf("epoch %d: multi-process loss %.17g != in-process %.17g", e, epochLoss[e], want)
		}
	}
	if want := mpParamHash(ref.Models[0]); hashes[0] != want {
		t.Fatalf("multi-process weights %s != in-process weights %s", hashes[0], want)
	}
}
