package comm

import (
	"testing"
	"time"
)

// TestLatencyGroupDelaysDelivery: a message received immediately after being
// sent must not be consumable before the configured link delay has passed,
// and time spent doing other work while it is in flight must count against
// the delay.
func TestLatencyGroupDelaysDelivery(t *testing.T) {
	const delay = 30 * time.Millisecond
	g := WithLinkModel(New(2, 0), LinkModel{Latency: delay})
	g.Run(func(w *Worker) {
		switch w.Rank() {
		case 0:
			buf := w.SendBufF32(3) // the engine's lent-buffer send is delayed too
			copy(buf, []float32{1, 2, 3})
			w.ISendBufF32(1, 1, buf)
			w.ISendF32(1, 1, []float32{4})
		case 1:
			start := time.Now()
			got := w.RecvF32(0, 1)
			if d := time.Since(start); d < delay/2 {
				t.Errorf("first message consumable after %v, want ≈%v", d, delay)
			}
			if len(got) != 3 || got[0] != 1 {
				t.Errorf("payload corrupted: %v", got)
			}
			// The second message was in flight the whole time the first
			// wait slept, so it must now be (nearly) free to consume.
			start = time.Now()
			if got := w.RecvF32(0, 1); len(got) != 1 || got[0] != 4 {
				t.Errorf("payload corrupted: %v", got)
			}
			if d := time.Since(start); d > delay/2 {
				t.Errorf("overlapped message still cost %v of exposed wait, want ≈0", d)
			}
		}
	})
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyGroupCollectivesUnchanged: the decorator must not change any
// delivered bit — the ring AllReduce over a wrapped group produces the exact
// sums of the bare group.
func TestLatencyGroupCollectivesUnchanged(t *testing.T) {
	const k, n = 3, 17
	g := WithLinkModel(New(k, 0), LinkModel{Latency: time.Millisecond})
	g.Run(func(w *Worker) {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(w.Rank()*100 + i)
		}
		w.AllReduceSum(data, 40)
		for i := range data {
			want := float32(0)
			for r := 0; r < k; r++ {
				want += float32(r*100 + i)
			}
			if data[i] != want {
				t.Errorf("rank %d: sum[%d] = %v, want %v", w.Rank(), i, data[i], want)
			}
		}
	})
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyLedgerBounded pins the ledger leak fix: the per-stream stamp
// queue must reuse its ring slots instead of growing its backing array by
// one slot per message, so a long run with bounded in-flight messages keeps
// bounded ledger memory.
func TestLatencyLedgerBounded(t *testing.T) {
	g := WithLinkModel(New(2, 0), LinkModel{}) // zero delay: exercise bookkeeping only
	const tag, rounds = 7, 20000
	// Lockstep rounds (the receiver acks each pair) keep at most two
	// messages in flight per stream, so any ring growth beyond a few slots
	// would be the old one-slot-per-message leak.
	g.Run(func(w *Worker) {
		for i := 0; i < rounds; i++ {
			switch w.Rank() {
			case 0:
				w.SendF32(1, tag, []float32{1, 2})
				w.SendF32(1, tag, []float32{3})
				w.RecvF32(1, tag+1)
			case 1:
				w.RecvF32(0, tag)
				w.RecvF32(0, tag)
				w.SendF32(0, tag+1, []float32{0})
			}
		}
	})
	lt := g.Worker(1).Transport().(*latencyTransport)
	q := lt.s.due[linkKey{src: 0, dst: 1, tag: tag}]
	if q == nil {
		t.Fatal("no stamp queue for the exercised stream")
	}
	if q.n != 0 {
		t.Fatalf("%d stamps left in flight, want 0", q.n)
	}
	if cap(q.buf) > 8 {
		t.Fatalf("ledger ring grew to %d slots over %d messages with ≤2 in flight", cap(q.buf), rounds)
	}
	if q.seq != 2*rounds {
		t.Fatalf("stream sequence %d, want %d", q.seq, 2*rounds)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStampQueueRing exercises push/pop wraparound and growth directly.
func TestStampQueueRing(t *testing.T) {
	var q stampQueue
	now := time.Now()
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			q.push(stamp{at: now, delay: time.Duration(round*10 + i)})
		}
		for i := 0; i < 3; i++ {
			s, ok := q.pop()
			if !ok || s.delay != time.Duration(round*10+i) {
				t.Fatalf("round %d: pop %v (ok=%v), want %d", round, s.delay, ok, round*10+i)
			}
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	if cap(q.buf) > 4 {
		t.Fatalf("queue grew to %d slots with ≤3 in flight", cap(q.buf))
	}
	// Growth preserves FIFO order across the wrap point.
	for i := 0; i < 9; i++ {
		q.push(stamp{at: now, delay: time.Duration(i)})
	}
	for i := 0; i < 9; i++ {
		if s, _ := q.pop(); s.delay != time.Duration(i) {
			t.Fatalf("after growth: pop %v, want %d", s.delay, i)
		}
	}
}

// TestLinkModelDelayComposition: per-link bases override the default, and the
// jitter draw is deterministic in the model seed and per-message identity.
func TestLinkModelDelayComposition(t *testing.T) {
	m := LinkModel{
		Latency: 2 * time.Millisecond,
		PerLink: map[Link]time.Duration{{Src: 1, Dst: 0}: 9 * time.Millisecond},
	}
	if d := m.delayOf(0, 1, 5, 0); d != 2*time.Millisecond {
		t.Errorf("default link delay %v, want 2ms", d)
	}
	if d := m.delayOf(1, 0, 5, 0); d != 9*time.Millisecond {
		t.Errorf("per-link override delay %v, want 9ms", d)
	}

	j := LinkModel{Jitter: time.Millisecond, Seed: 42}
	d1 := j.delayOf(0, 1, 5, 3)
	d2 := j.delayOf(0, 1, 5, 3)
	if d1 != d2 {
		t.Errorf("jitter not deterministic: %v vs %v", d1, d2)
	}
	if d1 < 0 || d1 >= time.Millisecond {
		t.Errorf("jitter %v outside [0, 1ms)", d1)
	}
	if j.delayOf(0, 1, 5, 4) == d1 && j.delayOf(0, 1, 5, 5) == d1 {
		t.Error("jitter constant across sequence numbers")
	}
	j2 := LinkModel{Jitter: time.Millisecond, Seed: 43}
	if j2.delayOf(0, 1, 5, 3) == d1 && j2.delayOf(0, 1, 5, 4) == j.delayOf(0, 1, 5, 4) {
		t.Error("jitter ignores the seed")
	}
}
