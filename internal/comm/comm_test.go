package comm

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPointToPoint(t *testing.T) {
	c := New(2, 0)
	c.Run(func(w *Worker) {
		if w.Rank() == 0 {
			w.SendF32(1, 7, []float32{1, 2, 3})
		} else {
			got := w.RecvF32(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("recv got %v", got)
			}
		}
	})
}

func TestAllReduceSum(t *testing.T) {
	for _, m := range []int{1, 2, 4, 7} {
		c := New(m, 0)
		c.Run(func(w *Worker) {
			data := []float32{float32(w.Rank()), 1}
			w.AllReduceSum(data, 100)
			wantFirst := float32(m*(m-1)) / 2
			if data[0] != wantFirst || data[1] != float32(m) {
				t.Errorf("m=%d rank=%d allreduce got %v", m, w.Rank(), data)
			}
		})
	}
}

func TestAllReduceMatchesSerialSum(t *testing.T) {
	const m = 5
	c := New(m, 0)
	inputs := make([][]float32, m)
	want := make([]float32, 16)
	for r := 0; r < m; r++ {
		inputs[r] = make([]float32, 16)
		for i := range inputs[r] {
			inputs[r][i] = float32(r*100 + i)
			want[i] += inputs[r][i]
		}
	}
	c.Run(func(w *Worker) {
		data := make([]float32, 16)
		copy(data, inputs[w.Rank()])
		w.AllReduceSum(data, 0)
		for i := range data {
			if data[i] != want[i] {
				t.Errorf("rank %d elem %d: got %v want %v", w.Rank(), i, data[i], want[i])
			}
		}
	})
}

// TestBarrierSynchronizes: no rank leaves a barrier before every rank has
// entered it, round after round, and a barrier moves no payload: it adds
// nothing to any rank's BytesSent or MessagesSent.
func TestBarrierSynchronizes(t *testing.T) {
	const k = 6
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			g := b.mk(t, k, 0)
			var phase atomic.Int32
			var violations atomic.Int32
			g.Run(func(w *Worker) {
				for round := int32(1); round <= 5; round++ {
					phase.Store(round)
					w.Barrier()
					if phase.Load() != round {
						violations.Add(1)
					}
					w.Barrier()
				}
			})
			if violations.Load() > 0 {
				t.Fatalf("%d barrier violations", violations.Load())
			}
			for r := 0; r < k; r++ {
				if bytes, msgs := g.BytesSent(r), g.MessagesSent(r); bytes != 0 || msgs != 0 {
					t.Fatalf("rank %d: barriers counted %d bytes and %d messages, want 0 and 0", r, bytes, msgs)
				}
			}
		})
	}
}

// TestAbortUnblocksBarrier: a rank waiting in a barrier on a peer that
// aborted fails with a *TransportError instead of blocking forever.
func TestAbortUnblocksBarrier(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			g := b.mk(t, 2, 0)
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				g.Run(func(w *Worker) {
					if w.Rank() == 0 {
						w.Transport().Abort()
						return
					}
					w.Barrier() // rank 0 will never arrive
				})
			}()
			select {
			case p := <-done:
				if _, ok := p.(*TransportError); !ok {
					t.Fatalf("expected *TransportError panic from Run, got %v", p)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("barrier wait on an aborted transport deadlocked")
			}
		})
	}
}

// TestSendOnReservedTagPanics: the reserved tags carry the transport's own
// control messages, so a payload send on one is refused on every backend.
func TestSendOnReservedTagPanics(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			g := b.mk(t, 2, 0)
			defer func() {
				p := recover()
				if msg, ok := p.(string); !ok || !strings.Contains(msg, "outside [0,") {
					t.Fatalf("send on tag %d: want the application-tag panic, got %v", tagReservedBase, p)
				}
				if got := g.MessagesSent(0); got != 0 {
					t.Fatalf("refused send counted %d messages", got)
				}
			}()
			g.Worker(0).SendF32(1, tagReservedBase, []float32{1})
		})
	}
}

// TestByteAccounting: a send counts 4 bytes per element and one message at
// its sender, and the counters only grow, so each round reads as a delta.
func TestByteAccounting(t *testing.T) {
	c := New(2, 0)
	for round := 0; round < 2; round++ {
		b0, b1, m0 := c.BytesSent(0), c.BytesSent(1), c.MessagesSent(0)
		c.Run(func(w *Worker) {
			if w.Rank() == 0 {
				w.SendF32(1, 1, make([]float32, 10)) // 40 bytes
				w.SendF32(1, 2, make([]float32, 5))  // 20 bytes
			} else {
				w.RecvF32(0, 1)
				w.RecvF32(0, 2)
			}
		})
		if got := c.BytesSent(0) - b0; got != 60 {
			t.Fatalf("round %d: BytesSent(0) grew by %d, want 60", round, got)
		}
		if got := c.BytesSent(1) - b1; got != 0 {
			t.Fatalf("round %d: BytesSent(1) grew by %d, want 0", round, got)
		}
		if got := c.MessagesSent(0) - m0; got != 2 {
			t.Fatalf("round %d: MessagesSent(0) grew by %d, want 2", round, got)
		}
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	c := New(3, 0)
	defer func() {
		if p := recover(); p == nil {
			t.Fatal("expected panic from worker")
		}
	}()
	c.Run(func(w *Worker) {
		if w.Rank() == 2 {
			panic("worker failure")
		}
	})
}

func TestMessageOrderingPerPair(t *testing.T) {
	c := New(2, 0)
	c.Run(func(w *Worker) {
		if w.Rank() == 0 {
			for i := 0; i < 50; i++ {
				w.SendF32(1, i, []float32{float32(i)})
			}
		} else {
			for i := 0; i < 50; i++ {
				got := w.RecvF32(0, i)
				if got[0] != float32(i) {
					t.Errorf("out of order: got %v at %d", got[0], i)
				}
			}
		}
	})
}

func TestAllToAllExchangeDoesNotDeadlock(t *testing.T) {
	const m = 8
	c := New(m, 0)
	done := make(chan struct{})
	go func() {
		c.Run(func(w *Worker) {
			for round := 0; round < 10; round++ {
				for dst := 0; dst < m; dst++ {
					if dst != w.Rank() {
						w.SendF32(dst, round, make([]float32, 100))
					}
				}
				for src := 0; src < m; src++ {
					if src != w.Rank() {
						w.RecvF32(src, round)
					}
				}
				w.Barrier()
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("all-to-all exchange deadlocked")
	}
}

func TestWorkerRankBounds(t *testing.T) {
	c := New(2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Worker(5)
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 0)
}
