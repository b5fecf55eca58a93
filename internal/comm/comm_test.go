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

// TestDtypeMismatchPanics: a receive that finds a message of the other dtype
// at the head of its stream — an empty one included — is a protocol bug and
// panics on both backends, rather than handing back a nil payload.
func TestDtypeMismatchPanics(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			g := b.mk(t, 2, 0)
			w0, w1 := g.Worker(0), g.Worker(1)
			w0.SendI32(1, 1, []int32{7})
			w0.SendI32(1, 2, []int32{})
			w0.SendF32(1, 3, nil)
			for _, c := range []struct {
				what string
				recv func()
			}{
				{"RecvF32 of an int32 message", func() { w1.RecvF32(0, 1) }},
				{"RecvF32 of an empty int32 message", func() { w1.RecvF32(0, 2) }},
				{"RecvI32 of an empty float32 message", func() { w1.RecvI32(0, 3) }},
			} {
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, "protocol bug") {
							t.Errorf("%s panicked with %q, want a protocol-bug panic", c.what, msg)
						}
					}()
					c.recv()
				}()
			}
		})
	}
}

func TestI32RoundTrip(t *testing.T) {
	c := New(3, 0)
	c.Run(func(w *Worker) {
		next := (w.Rank() + 1) % 3
		prev := (w.Rank() + 2) % 3
		w.SendI32(next, 5, []int32{int32(w.Rank())})
		got := w.RecvI32(prev, 5)
		if int(got[0]) != prev {
			t.Errorf("rank %d got %v from %d", w.Rank(), got, prev)
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

func TestAllGatherI32(t *testing.T) {
	const m = 4
	c := New(m, 0)
	c.Run(func(w *Worker) {
		own := make([]int32, w.Rank()) // variable lengths, rank r sends r items
		for i := range own {
			own[i] = int32(w.Rank() * 10)
		}
		got := w.AllGatherI32(own, 3)
		for r := 0; r < m; r++ {
			if len(got[r]) != r {
				t.Errorf("rank %d: got[%d] has %d items, want %d", w.Rank(), r, len(got[r]), r)
			}
			for _, v := range got[r] {
				if int(v) != r*10 {
					t.Errorf("rank %d: wrong content from %d: %v", w.Rank(), r, v)
				}
			}
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	const m = 6
	c := New(m, 0)
	var phase atomic.Int32
	var violations atomic.Int32
	c.Run(func(w *Worker) {
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
}

func TestByteAccounting(t *testing.T) {
	c := New(2, 0)
	c.Run(func(w *Worker) {
		if w.Rank() == 0 {
			w.SendF32(1, 1, make([]float32, 10)) // 40 bytes
			w.SendI32(1, 2, make([]int32, 5))    // 20 bytes
		} else {
			w.RecvF32(0, 1)
			w.RecvI32(0, 2)
		}
	})
	if got := c.BytesSent(0); got != 60 {
		t.Fatalf("BytesSent(0) = %d, want 60", got)
	}
	if got := c.BytesSent(1); got != 0 {
		t.Fatalf("BytesSent(1) = %d, want 0", got)
	}
	if got := c.MessagesSent(0); got != 2 {
		t.Fatalf("MessagesSent(0) = %d, want 2", got)
	}
	if got := c.TotalBytesSent(); got != 60 {
		t.Fatalf("TotalBytesSent = %d", got)
	}
	c.ResetCounters()
	if c.TotalBytesSent() != 0 {
		t.Fatal("ResetCounters did not zero")
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
