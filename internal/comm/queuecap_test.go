package comm

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestPairQueueOverflowBlocksNotDrops pins the documented queueCap contract
// of the inbox both backends share: each (src, tag) stream holds
// queueCap messages, a full stream does not hold up another stream of the
// same pair, pushing into a full stream blocks — backpressure — and no
// message is ever dropped or reordered once the receiver drains.
func TestPairQueueOverflowBlocksNotDrops(t *testing.T) {
	const capacity = 4
	const overflow = capacity + 3
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			g := b.mk(t, 2, capacity)
			var completed atomic.Int32
			g.Run(func(w *Worker) {
				if w.Rank() == 0 {
					// Tag 1 fills its stream exactly; tag 2 then overflows its own.
					for i := 0; i < capacity; i++ {
						w.SendF32(1, 1, []float32{float32(i)})
						completed.Add(1)
					}
					for i := 0; i < overflow; i++ {
						w.SendF32(1, 2, []float32{float32(i)})
						completed.Add(1)
					}
					return
				}
				// Both streams fill to the bound: tag 1's full queue did not
				// stop tag 2's from filling behind it.
				in := inboxOf(w.Transport())
				full := func() bool { return in.queued(0, 1) == capacity && in.queued(0, 2) == capacity }
				for deadline := time.Now().Add(5 * time.Second); !full() && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if !full() {
					t.Errorf("streams hold %d and %d messages, want both at the bound %d",
						in.queued(0, 1), in.queued(0, 2), capacity)
				}
				if b.name == "chan" {
					// A channel-cluster sender pushes into the inbox itself, so it
					// is the one parked on tag 2's full stream. (A TCP sender's
					// frames wait in its send queue; its demux goroutine parks.)
					time.Sleep(50 * time.Millisecond) // give a buggy non-blocking push time to race past
					if got := completed.Load(); got != 2*capacity {
						t.Errorf("sender completed %d sends against two streams of capacity %d", got, capacity)
					}
				}
				for i := 0; i < overflow; i++ {
					if got := w.RecvF32(0, 2); got[0] != float32(i) {
						t.Errorf("tag 2 message %d: got %v (dropped or reordered)", i, got[0])
					}
				}
				for i := 0; i < capacity; i++ {
					if got := w.RecvF32(0, 1); got[0] != float32(i) {
						t.Errorf("tag 1 message %d: got %v (dropped or reordered)", i, got[0])
					}
				}
			})
			if got := g.MessagesSent(0); got != capacity+overflow {
				t.Fatalf("accounting says %d messages, want %d", got, capacity+overflow)
			}
		})
	}
}

// TestDefaultQueueCapCoversTrainingBound documents the default's headroom:
// the widest paper configuration (m=32 partitions) queues at most 2(m−1) = 62
// messages on one stream, the ring AllReduce's — see New.
func TestDefaultQueueCapCoversTrainingBound(t *testing.T) {
	const maxParts = 32
	bound := 2 * (maxParts - 1)
	if defaultQueueCap < bound {
		t.Fatalf("default queue cap %d below the documented training bound %d", defaultQueueCap, bound)
	}
}
