package comm

import (
	"sync/atomic"
	"testing"
)

// TestClusterReusedAcrossRuns: the trainer calls Run once per epoch on the
// same cluster; channels must be drained and counters must accumulate.
func TestClusterReusedAcrossRuns(t *testing.T) {
	c := New(3, 0)
	for epoch := 0; epoch < 10; epoch++ {
		c.Run(func(w *Worker) {
			next := (w.Rank() + 1) % 3
			prev := (w.Rank() + 2) % 3
			w.SendF32(next, epoch, []float32{float32(epoch)})
			got := w.RecvF32(prev, epoch)
			if got[0] != float32(epoch) {
				t.Errorf("epoch %d: got %v", epoch, got[0])
			}
			w.Barrier()
		})
	}
	if got := c.MessagesSent(0); got != 10 {
		t.Fatalf("rank 0 sent %d messages, want 10", got)
	}
}

func TestAllReduceEmptyVector(t *testing.T) {
	c := New(2, 0)
	c.Run(func(w *Worker) {
		w.AllReduceSum(nil, 0) // must not deadlock or panic
	})
}

func TestSingleWorkerCluster(t *testing.T) {
	c := New(1, 0)
	var ran atomic.Bool
	c.Run(func(w *Worker) {
		data := []float32{3}
		w.AllReduceSum(data, 0)
		if data[0] != 3 {
			t.Errorf("m=1 allreduce changed data: %v", data)
		}
		w.Barrier()
		ran.Store(true)
	})
	if !ran.Load() {
		t.Fatal("worker did not run")
	}
}

func TestConcurrentBidirectionalTraffic(t *testing.T) {
	// Every pair exchanges simultaneously in both directions across many
	// rounds — the pattern the per-layer halo exchange produces.
	const m = 5
	c := New(m, 0)
	c.Run(func(w *Worker) {
		for round := 0; round < 20; round++ {
			for dst := 0; dst < m; dst++ {
				if dst != w.Rank() {
					w.SendF32(dst, round, []float32{float32(w.Rank()*1000 + round)})
				}
			}
			for src := 0; src < m; src++ {
				if src != w.Rank() {
					got := w.RecvF32(src, round)
					if got[0] != float32(src*1000+round) {
						t.Errorf("round %d: from %d got %v", round, src, got[0])
					}
				}
			}
		}
	})
}
