package comm

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestISendIRecvRoundTrip: the nonblocking send must deliver the same
// payloads as the blocking one, on both backends, including mixed blocking
// and nonblocking traffic on one (pair, tag) stream, and plain receives take
// them in send order.
func TestISendIRecvRoundTrip(t *testing.T) {
	for _, b := range backends {
		g := b.mk(t, 2, 0)
		const tag = 7
		const msgs = 16
		g.Run(func(w *Worker) {
			if w.Rank() == 0 {
				for i := 0; i < msgs; i++ {
					payload := []float32{float32(i), float32(2 * i)}
					if i%3 == 0 {
						w.SendF32(1, tag, payload) // blocking interleaved with async
					} else {
						w.ISendF32(1, tag, payload)
					}
				}
			} else {
				for i := 0; i < msgs; i++ {
					got := w.RecvF32(0, tag)
					if len(got) != 2 || got[0] != float32(i) || got[1] != float32(2*i) {
						t.Errorf("%s: message %d = %v, want [%d %d]", b.name, i, got, i, 2*i)
					}
					w.RecycleF32(got)
				}
			}
		})
		if err := g.Close(); err != nil {
			t.Fatalf("%s: close: %v", b.name, err)
		}
	}
}

// TestRecycledBuffersAreReused: on the TCP backend, recycling a received
// payload must feed the next receive of the same size class from the pool
// without corrupting data that is still in flight.
func TestRecycledBuffersAreReused(t *testing.T) {
	g := tcpGroup(t, 2)
	const tag = 3
	const rounds = 20
	g.Run(func(w *Worker) {
		if w.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				payload := make([]float32, 33) // odd size: exercises bucket reuse
				for j := range payload {
					payload[j] = float32(i*100 + j)
				}
				w.SendF32(1, tag, payload)
			}
		} else {
			for i := 0; i < rounds; i++ {
				got := w.RecvF32(0, tag)
				for j, v := range got {
					if v != float32(i*100+j) {
						t.Errorf("round %d element %d = %v, want %v", i, j, v, i*100+j)
					}
				}
				w.RecycleF32(got)
			}
		}
	})
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSendParkedOnFullQueuePanicsOnAbort: a send is complete once queued, so
// the one place it can block is a full queue — and a send parked there must
// panic with a *TransportError when the transport is aborted, not hang. The
// receiver never reads: on the channel backend the sender parks on the
// receiver's full stream, on TCP (once the stream, the socket buffers and the
// writer's queue are full) on its own send queue.
func TestSendParkedOnFullQueuePanicsOnAbort(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			g := b.mk(t, 2, 2)
			w := g.Worker(0)
			var sent atomic.Int64
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				for {
					w.SendF32(1, 1, make([]float32, 4096))
					sent.Add(1)
				}
			}()
			// Abort once the sender has stopped making progress: it is parked.
			deadline := time.Now().Add(10 * time.Second)
			for last := int64(-1); sent.Load() != last; time.Sleep(100 * time.Millisecond) {
				if time.Now().After(deadline) {
					w.Transport().Abort()
					t.Fatal("sends to a receiver that never reads did not block")
				}
				last = sent.Load()
			}
			w.Transport().Abort()
			select {
			case p := <-done:
				if _, ok := p.(*TransportError); !ok {
					t.Fatalf("the parked send panicked with %v (%T), want a *TransportError", p, p)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a send parked on a full queue deadlocked through Abort")
			}
			g.Close()
		})
	}
}
