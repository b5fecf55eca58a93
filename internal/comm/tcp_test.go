package comm

import (
	"cmp"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// loopbackTransports bootstraps a full k-rank TCP mesh over 127.0.0.1 and
// registers cleanup. The rendezvous listener is pre-bound so the test never
// races on a free port.
func loopbackTransports(t testing.TB, k int) []*TCPTransport {
	t.Helper()
	return loopbackTransportsCfg(t, k, nil)
}

// tcpGroup wraps loopback transports in a Group so tests can reuse the
// in-process Run driver over real sockets.
func tcpGroup(t testing.TB, k int) *Group {
	t.Helper()
	return groupOf(loopbackTransports(t, k))
}

func groupOf(ts []*TCPTransport) *Group {
	generic := make([]Transport, len(ts))
	for i, tp := range ts {
		generic[i] = tp
	}
	return NewGroup(generic)
}

// SendF32 lets a test that holds a bare TCP endpoint send a copy of a float32
// payload the way a Worker does; endpoints themselves have no SendF32.
func (t *TCPTransport) SendF32(dst, tag int, data []float32) { NewWorker(t).SendF32(dst, tag, data) }

// backends lists both transports for tests that pin one contract on each:
// mk builds a k-rank group whose per-stream queues hold queueCap messages (0
// for the default). A TCP endpoint always starts at the default; its queues
// are narrowed before any message flows.
var backends = []struct {
	name string
	mk   func(t testing.TB, k, queueCap int) *Group
}{
	{"chan", func(t testing.TB, k, queueCap int) *Group { return New(k, queueCap) }},
	{"tcp", func(t testing.TB, k, queueCap int) *Group {
		ts := loopbackTransports(t, k)
		for _, tp := range ts {
			tp.inbox.mu.Lock()
			tp.inbox.queueCap = cmp.Or(queueCap, defaultQueueCap)
			tp.inbox.mu.Unlock()
		}
		return groupOf(ts)
	}},
}

// inboxOf returns a backend endpoint's receive side.
func inboxOf(tr Transport) *inbox {
	switch e := tr.(type) {
	case *ChanTransport:
		return e.inbox
	case *TCPTransport:
		return e.inbox
	}
	panic(fmt.Sprintf("no inbox in a %T", tr))
}

// queued returns how many messages the (src, tag) stream holds.
func (in *inbox) queued(src, tag int) int {
	s := in.stream(src, tag)
	in.mu.Lock()
	defer in.mu.Unlock()
	return s.n
}

func TestTCPPointToPointAndOrdering(t *testing.T) {
	g := tcpGroup(t, 2)
	g.Run(func(w *Worker) {
		if w.Rank() == 0 {
			for i := 0; i < 50; i++ {
				w.SendF32(1, 7, []float32{float32(i)})
			}
		} else {
			for i := 0; i < 50; i++ {
				if got := w.RecvF32(0, 7); got[0] != float32(i) {
					t.Errorf("out of order: got %v at %d", got[0], i)
				}
			}
		}
	})
}

// TestInterleavedTagsDemuxed: every (src, tag) stream is its own queue, so
// receives can name tags in any order on both backends — over TCP, where the
// frames for different tags share one connection, as over channels.
func TestInterleavedTagsDemuxed(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			b.mk(t, 2, 0).Run(func(w *Worker) {
				if w.Rank() == 0 {
					w.SendF32(1, 1, []float32{1})
					w.SendF32(1, 2, []float32{2})
					w.SendF32(1, 3, []float32{3})
				} else {
					if got := w.RecvF32(0, 3); got[0] != 3 {
						t.Errorf("tag 3: %v", got)
					}
					if got := w.RecvF32(0, 1); got[0] != 1 {
						t.Errorf("tag 1: %v", got)
					}
					if got := w.RecvF32(0, 2); got[0] != 2 {
						t.Errorf("tag 2: %v", got)
					}
				}
			})
		})
	}
}

// TestTCPMatchesChanBackend runs the same collective script on both backends
// and demands bit-identical results and identical per-rank accounting: the
// proof that byte counters are backend-independent and the cost model can
// trust either.
func TestTCPMatchesChanBackend(t *testing.T) {
	const k, n = 4, 997 // odd length exercises uneven ring chunks
	script := func(w *Worker, out [][]float32) {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(1.0/3.0) * float32(w.Rank()+1) * float32(i%13+1) * 1e-3
		}
		w.AllReduceSum(data, 40)
		w.Barrier()
		out[w.Rank()] = data
	}

	chanC := New(k, 0)
	chanOut := make([][]float32, k)
	chanC.Run(func(w *Worker) { script(w, chanOut) })

	tcpG := tcpGroup(t, k)
	tcpOut := make([][]float32, k)
	tcpG.Run(func(w *Worker) { script(w, tcpOut) })

	for r := 0; r < k; r++ {
		for i := range chanOut[r] {
			if chanOut[r][i] != tcpOut[r][i] {
				t.Fatalf("rank %d elem %d: chan %v != tcp %v", r, i, chanOut[r][i], tcpOut[r][i])
			}
		}
		if cb, tb := chanC.BytesSent(r), tcpG.BytesSent(r); cb != tb {
			t.Fatalf("rank %d: chan sent %d bytes, tcp sent %d", r, cb, tb)
		}
		if cm, tm := chanC.MessagesSent(r), tcpG.MessagesSent(r); cm != tm {
			t.Fatalf("rank %d: chan sent %d messages, tcp sent %d", r, cm, tm)
		}
	}
}

// TestTCPWireOverheadAccounted: a payload counts its 4 bytes per element, the
// wire its frame header on top; the counters only grow, so each send reads
// as a delta.
func TestTCPWireOverheadAccounted(t *testing.T) {
	ts := loopbackTransports(t, 2)
	for round := 0; round < 2; round++ {
		payload, wire := ts[0].BytesSent(), ts[0].WireBytesSent()
		ts[0].SendF32(1, 1, make([]float32, 10))
		if got := ts[0].BytesSent() - payload; got != 40 {
			t.Fatalf("round %d: payload bytes grew by %d, want 40", round, got)
		}
		if got := ts[0].WireBytesSent() - wire; got != 40+frameHeaderSize {
			t.Fatalf("round %d: wire bytes grew by %d, want %d", round, got, 40+frameHeaderSize)
		}
		ts[1].RecvF32(0, 1)
	}
}

// TestTCPPeerDeathFailsSurvivors is the fault-injection case: one rank's
// connections are torn down mid-protocol (as a SIGKILL would) and every
// surviving rank must surface a transport error within the deadline — no
// deadlock — and the demux goroutines must all exit (no leak).
func TestTCPPeerDeathFailsSurvivors(t *testing.T) {
	before := runtime.NumGoroutine()
	const k = 4
	ts := loopbackTransports(t, k)
	failures := make(chan error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if te, ok := p.(*TransportError); ok {
						failures <- te
					} else {
						t.Errorf("rank %d: panic value %T is not a *TransportError: %v", r, p, p)
					}
				}
			}()
			w := NewWorker(ts[r])
			for round := 0; ; round++ {
				if r == k-1 && round == 3 {
					ts[r].Abort() // the emulated kill
					return
				}
				w.SendF32((r+1)%k, round, []float32{float32(r)})
				w.RecvF32((r+k-1)%k, round)
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("survivors did not observe the dead peer within the deadline")
	}
	if got := len(failures); got != k-1 {
		t.Fatalf("%d ranks surfaced a transport error, want %d survivors", got, k-1)
	}
	for _, tp := range ts[:k-1] {
		if tp.Err() == nil {
			t.Fatal("surviving transport recorded no failure")
		}
	}
	// All demux goroutines must have exited with the connections.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Fatalf("goroutine leak: %d before fault injection, %d after teardown", before, after)
	}
}

// TestTCPGracefulCloseUnblocksPendingRecv: a clean Close by a peer must not
// strand ranks still waiting on it — their Recv fails with a "closed" error
// — but messages sent before the goodbye must still be delivered. A Recv
// issued only after the goodbye has been demuxed fails the same way instead
// of hanging.
func TestTCPGracefulCloseUnblocksPendingRecv(t *testing.T) {
	ts := loopbackTransports(t, 2)
	ts[1].SendF32(0, 5, []float32{42})
	ts[1].Close()

	if got := ts[0].RecvF32(1, 5); got[0] != 42 { // queued before the goodbye
		t.Fatalf("pre-close message lost: %v", got)
	}
	expectClosed := func(tag int) {
		t.Helper()
		panicked := make(chan any, 1)
		go func() {
			defer func() { panicked <- recover() }()
			ts[0].RecvF32(1, tag) // nothing more is coming
		}()
		select {
		case p := <-panicked:
			if p == nil || !strings.Contains(p.(*TransportError).Error(), "closed its transport") {
				t.Fatalf("tag %d: expected closed-peer error, got %v", tag, p)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("tag %d: Recv from a closed peer deadlocked", tag)
		}
	}
	expectClosed(6)
	select {
	case <-ts[0].gone[1]:
	case <-time.After(5 * time.Second):
		t.Fatal("rank 0 never observed the goodbye")
	}
	expectClosed(7)
}

// TestChanAbortUnblocksPeers: Abort must work on the channel backend too —
// a rank dying mid-protocol poisons the shared fabric so peers blocked in
// Recv (or in a backpressured Send) panic instead of deadlocking forever.
func TestChanAbortUnblocksPeers(t *testing.T) {
	c := New(3, 0)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		c.Run(func(w *Worker) {
			if w.Rank() == 0 {
				w.Transport().Abort()
				return
			}
			w.RecvF32(0, 1) // nothing will ever arrive
		})
	}()
	select {
	case p := <-done:
		if _, ok := p.(*TransportError); !ok {
			t.Fatalf("expected *TransportError panic from Run, got %v", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peers of an aborted chan transport deadlocked")
	}
}

func TestTCPWorldOfOne(t *testing.T) {
	tp, err := DialTCP(TCPConfig{Rank: 0, World: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(tp)
	data := []float32{3}
	w.AllReduceSum(data, 0)
	if data[0] != 3 {
		t.Fatalf("m=1 allreduce changed data: %v", data)
	}
	w.Barrier()
	if err := tp.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDialTCPRejectsBadConfig(t *testing.T) {
	if _, err := DialTCP(TCPConfig{Rank: 0, World: 0}); err == nil {
		t.Fatal("world 0 must be rejected")
	}
	if _, err := DialTCP(TCPConfig{Rank: 5, World: 2, Rendezvous: "127.0.0.1:1"}); err == nil {
		t.Fatal("rank out of range must be rejected")
	}
}

func TestDialTCPTimesOutWithoutRendezvous(t *testing.T) {
	// Nothing listens at the rendezvous address; a non-zero rank must give
	// up with a useful error once the bootstrap deadline passes.
	_, err := DialTCP(TCPConfig{
		Rank: 1, World: 2, Rendezvous: "127.0.0.1:1", Timeout: 300 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "rendezvous") {
		t.Fatalf("expected rendezvous timeout error, got %v", err)
	}
}
