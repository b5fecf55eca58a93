package comm

import (
	"sync"
	"testing"
	"time"
)

// TestISendIRecvRoundTrip: the nonblocking primitives must deliver the same
// payloads as the blocking ones, on both backends, including mixed blocking
// and nonblocking traffic on one (pair, tag) FIFO.
func TestISendIRecvRoundTrip(t *testing.T) {
	backends := []struct {
		name string
		mk   func() *Group
	}{
		{"chan", func() *Group { return New(2, 0) }},
		{"tcp", func() *Group { return tcpGroup(t, 2) }},
	}
	for _, b := range backends {
		g := b.mk()
		const tag = 7
		const msgs = 16
		g.Run(func(w *Worker) {
			if w.Rank() == 0 {
				var pending []PendingSend
				for i := 0; i < msgs; i++ {
					payload := []float32{float32(i), float32(2 * i)}
					if i%3 == 0 {
						w.SendF32(1, tag, payload) // blocking interleaved with async
					} else {
						pending = append(pending, w.ISendF32(1, tag, payload))
					}
				}
				for _, p := range pending {
					p.Wait()
				}
			} else {
				// Post all receives first, then wait in order — the demux
				// progresses regardless of when Wait runs.
				arrived := make(chan int, msgs)
				var handles []PendingRecvF32
				for i := 0; i < msgs; i++ {
					handles = append(handles, w.IRecvF32Notify(0, tag, arrived, i))
				}
				for i, h := range handles {
					<-arrived
					got := h.Wait()
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

// TestPendingSendWaitUnblocksOnAbort: a Wait parked on a dead transport must
// panic with a *TransportError instead of hanging.
func TestPendingSendWaitUnblocksOnAbort(t *testing.T) {
	ts := loopbackTransports(t, 2)
	done := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r == nil {
				t.Error("Wait on an aborted transport did not panic")
			} else if _, ok := r.(*TransportError); !ok {
				t.Errorf("Wait panicked with %T, want *TransportError", r)
			}
		}()
		for i := 0; ; i++ {
			// Rank 1 never reads; eventually the socket and queue fill and
			// either the enqueue or the Wait parks until the abort fires.
			h := ts[0].ISendF32(1, 1, make([]float32, 4096))
			once.Do(func() {
				go func() {
					time.Sleep(50 * time.Millisecond)
					ts[0].Abort()
				}()
			})
			h.Wait()
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("aborted send deadlocked")
	}
	ts[1].Close()
	ts[0].Close()
}
