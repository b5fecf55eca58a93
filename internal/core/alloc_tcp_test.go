package core

import "testing"

// TestTCPTrainEpochSteadyStateAllocs pins the frame pooling on the TCP path:
// after warm-up, a k=2 loopback epoch must run off the transport's two pools
// — the outgoing frames a rank gathers its halo rows into, and the incoming
// frame payloads it reads them out of, both recycled — leaving only the small
// fixed overhead of the per-epoch goroutine fan-out and the kernel-pool
// hand-off. Before pooling,
// every frame allocated its payload twice (socket read + decode) and every
// send serialized into a growing buffer under a lock, which scaled with
// message count and payload size.
func TestTCPTrainEpochSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc budgets only hold without -race")
	}
	ds := testDataset(t, 55)
	const k = 2
	topo := testTopology(t, ds, k)
	cfg := ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 3}
	tr, err := NewParallelTrainerOver(ds, topo, cfg, tcpLoopbackGroup(t, k))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tr.TrainEpoch() // warm up layer scratch, workspaces, and transport pools
	}
	tr.Evaluate(ds.TestMask) // as in TestTrainEpochSteadyStateAllocs
	// The fixed overhead mirrors the channel-backend budget in
	// TestTrainEpochSteadyStateAllocs, plus a small per-message term for
	// the scheduler churn of the four demux/writer goroutines. The
	// important property is that the budget is independent of payload
	// sizes, of layer count × message volume and of the kernel pool width: measured 20 allocs/epoch at GOMAXPROCS 1,
	// 27 at 2, 23 at 4 (24 / 24–29 / 24–26 while ranks still sent each
	// other their sampled positions; 25 / 46–51 / 66–68 before the dW
	// reductions moved onto the dispatcher).
	const budget = 80
	allocs, bytes := maxEpochAllocs(func() { tr.TrainEpoch() })
	if allocs > budget {
		t.Errorf("a steady-state TCP TrainEpoch allocates %d objects, budget %d", allocs, budget)
	}
	// The byte bound holds at every pool width: how many frames of one
	// size are in flight at once moves with the interleaving of the rank,
	// writer and demux goroutines, but the transport's free lists
	// pre-size a small size class on its first miss and lend a larger idle
	// buffer when a class runs dry (comm.bufPool), so no late epoch with
	// one more frame in flight than any before it allocates a frame buffer.
	// Measured 624–1296 bytes at GOMAXPROCS 1, 2 and 4.
	checkSteadyBytes(t, "tcp", bytes)
	t.Logf("steady-state TCP max allocs/epoch = %d (%d bytes)", allocs, bytes)
}
