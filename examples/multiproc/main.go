// Multiproc: BNS-GCN training across real OS processes on one machine. The
// parent re-execs itself once per rank; each rank process independently
// regenerates the dataset and partitioning from the shared seed, bootstraps
// the TCP transport through a loopback rendezvous address, and runs the same
// per-epoch protocol the in-process trainer uses — producing bit-identical
// weights (see TestTCPBackendBitIdenticalToChan in internal/core).
//
// This is the minimal template for crossing the process boundary: swap the
// loopback rendezvous for a reachable host:port and set TCPConfig.ListenHost
// per machine to span hosts.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/partition"
)

const (
	world  = 4
	epochs = 30
)

func main() {
	if r := os.Getenv("MULTIPROC_RANK"); r != "" {
		rank, err := strconv.Atoi(r)
		if err != nil {
			log.Fatal(err)
		}
		runRank(rank, os.Getenv("MULTIPROC_RDV"))
		return
	}

	// Parent: reserve a loopback rendezvous port and spawn one process per
	// rank. (The listener is closed before the children start; rank 0
	// re-binds the port.)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	rdv := ln.Addr().String()
	ln.Close()
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spawning %d rank processes, rendezvous at %s\n", world, rdv)
	cmds := make([]*exec.Cmd, world)
	for r := 0; r < world; r++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("MULTIPROC_RANK=%d", r), "MULTIPROC_RDV="+rdv)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		cmds[r] = cmd
	}
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			log.Fatalf("rank %d: %v", r, err)
		}
	}
}

// runRank is one rank's whole life: regenerate inputs, dial the mesh, train.
func runRank(rank int, rdv string) {
	ds, err := datagen.Generate(datagen.Config{
		Name: "multiproc", Nodes: 1200, Communities: 8, AvgDegree: 12,
		IntraFrac: 0.8, DegreeSkew: 2.0, FeatureDim: 16,
		FeatureSignal: 0.5, FeatureNoise: 1.0,
		TrainFrac: 0.6, ValFrac: 0.2, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := (&partition.Metis{Seed: 1}).Partition(ds.G, world)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := core.BuildTopology(ds.G, parts, world)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := core.NewRankTrainer(ds, topo, core.ParallelConfig{
		Model: core.ModelConfig{
			Arch: core.ArchSAGE, Layers: 2, Hidden: 16,
			Dropout: 0.3, LR: 0.01, Seed: 42,
		},
		P:          0.25,
		SampleSeed: 7,
	}, rank)
	if err != nil {
		log.Fatal(err)
	}

	tp, err := comm.DialTCP(comm.TCPConfig{
		Rank: rank, World: world, Rendezvous: rdv, Timeout: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	w := comm.NewWorker(tp)
	loss := make([]float32, 1)
	for epoch := 1; epoch <= epochs; epoch++ {
		st, err := rt.TrainEpoch(w)
		if err != nil {
			log.Fatal(err) // a dead peer surfaces here instead of deadlocking
		}
		loss[0] = float32(st.Loss)
		w.AllReduceSum(loss, 5000)
		if rank == 0 && epoch%10 == 0 {
			fmt.Printf("epoch %3d  loss %.4f  (rank 0 sent %d B this run)\n",
				epoch, loss[0], tp.BytesSent())
		}
	}
	// Evaluation is a collective too: every rank scores its own rows over the
	// live transport and all of them get the full-graph answer.
	acc, err := rt.Evaluate(w, ds.TestMask)
	if err != nil {
		log.Fatal(err)
	}
	w.Barrier()
	if rank == 0 {
		fmt.Printf("test accuracy: %.4f (full-graph inference, each rank scoring its partition)\n", acc)
	}
	if err := tp.Close(); err != nil {
		log.Fatal(err)
	}
}
