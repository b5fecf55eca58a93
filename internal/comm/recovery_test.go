package comm

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// loopbackTransportsCfg is loopbackTransports with a per-rank config hook,
// used by heartbeat tests that need asymmetric settings.
func loopbackTransportsCfg(t testing.TB, k int, mut func(r int, cfg *TCPConfig)) []*TCPTransport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ts := make([]*TCPTransport, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := TCPConfig{Rank: r, World: k, Rendezvous: addr, Timeout: 10 * time.Second}
			if r == 0 {
				cfg.RendezvousListener = ln
			}
			if mut != nil {
				mut(r, &cfg)
			}
			ts[r], errs[r] = DialTCP(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tp := range ts {
			tp.Close()
		}
	})
	return ts
}

// TestHeartbeatDetectsWedgedPeer: rank 0 arms the wedged-peer detector but
// rank 1 never emits heartbeats (interval 0 — emulating a process that is
// alive at the TCP level yet stuck). Rank 0 must declare it dead within the
// timeout instead of blocking forever on a silent link.
func TestHeartbeatDetectsWedgedPeer(t *testing.T) {
	ts := loopbackTransportsCfg(t, 2, func(r int, cfg *TCPConfig) {
		if r == 0 {
			cfg.HeartbeatInterval = 20 * time.Millisecond
			cfg.HeartbeatTimeout = 150 * time.Millisecond
		}
	})
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		ts[0].RecvF32(1, 1) // rank 1 will never send anything
	}()
	select {
	case p := <-done:
		te, ok := p.(*TransportError)
		if !ok {
			t.Fatalf("panic value %T, want *TransportError", p)
		}
		if !strings.Contains(te.Error(), "wedged") {
			t.Fatalf("expected wedged-peer error, got %v", te)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wedged peer was never detected")
	}
}

// TestHeartbeatKeepsIdleLinkAlive: with both sides heartbeating, an idle
// period far longer than the timeout must NOT trip the detector — the
// heartbeats are exactly what keeps a healthy-but-quiet link alive — and
// data still flows afterwards.
func TestHeartbeatKeepsIdleLinkAlive(t *testing.T) {
	ts := loopbackTransportsCfg(t, 2, func(r int, cfg *TCPConfig) {
		cfg.HeartbeatInterval = 15 * time.Millisecond
		cfg.HeartbeatTimeout = 100 * time.Millisecond
	})
	time.Sleep(400 * time.Millisecond) // several timeouts' worth of idleness
	for _, tp := range ts {
		if err := tp.Err(); err != nil {
			t.Fatalf("healthy idle link failed: %v", err)
		}
	}
	ts[0].SendF32(1, 1, []float32{42})
	if got := ts[1].RecvF32(0, 1); got[0] != 42 {
		t.Fatalf("post-idle payload corrupted: %v", got)
	}
	for _, tp := range ts {
		if err := tp.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeartbeatFramesInvisibleToCounters: heartbeats are plumbing, not
// messages — payload counters must not move on an idle heartbeating link.
func TestHeartbeatFramesInvisibleToCounters(t *testing.T) {
	ts := loopbackTransportsCfg(t, 2, func(r int, cfg *TCPConfig) {
		cfg.HeartbeatInterval = 10 * time.Millisecond
	})
	time.Sleep(100 * time.Millisecond)
	for r, tp := range ts {
		if n := tp.MessagesSent(); n != 0 {
			t.Fatalf("rank %d: %d payload messages counted on an idle link", r, n)
		}
		if n := tp.BytesSent(); n != 0 {
			t.Fatalf("rank %d: %d payload bytes counted on an idle link", r, n)
		}
	}
}

// TestDialRetryConnectsToLateServer: the rendezvous dial must survive rank
// 0 coming up hundreds of milliseconds late (process scheduling skew, a
// recovering cohort) by retrying with backoff instead of failing on the
// first refused connection.
func TestDialRetryConnectsToLateServer(t *testing.T) {
	// Reserve a port, release it, and bring the real listener up late.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var ts [2]*TCPTransport
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // rank 1 dials immediately — into refused connections at first
		defer wg.Done()
		ts[1], errs[1] = DialTCP(TCPConfig{Rank: 1, World: 2, Rendezvous: addr, Timeout: 10 * time.Second})
	}()
	go func() { // rank 0 shows up 300ms late
		defer wg.Done()
		time.Sleep(300 * time.Millisecond)
		lateLn, err := net.Listen("tcp", addr)
		if err != nil {
			errs[0] = err
			return
		}
		ts[0], errs[0] = DialTCP(TCPConfig{
			Rank: 0, World: 2, Rendezvous: addr, RendezvousListener: lateLn, Timeout: 10 * time.Second,
		})
	}()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer ts[0].Close()
	defer ts[1].Close()
	ts[1].SendF32(0, 1, []float32{7})
	if got := ts[0].RecvF32(1, 1); got[0] != 7 {
		t.Fatalf("payload corrupted: %v", got)
	}
}

// TestRendezvousRejectsBadRegistrations: a misconfigured client (rank out
// of range, malformed join line) gets a pointed EERR reply and its connection
// closed, and — critically — the correctly configured cohort still
// bootstraps; one bad process must not wedge the whole round.
func TestRendezvousRejectsBadRegistrations(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	var ts [2]*TCPTransport
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ts[0], errs[0] = DialTCP(TCPConfig{
			Rank: 0, World: 2, Rendezvous: addr, RendezvousListener: ln, Timeout: 10 * time.Second,
		})
	}()
	go func() {
		defer wg.Done()
		// Two bad clients first; the server must reject both and keep serving.
		for _, hello := range []string{"EJOIN 7 1.2.3.4:1 0\n", "GARBAGE\n"} {
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				errs[1] = err
				return
			}
			fmt.Fprint(conn, hello)
			line, err := bufio.NewReader(conn).ReadString('\n')
			conn.Close()
			if err != nil {
				errs[1] = fmt.Errorf("bad client got no reply: %w", err)
				return
			}
			if !strings.HasPrefix(line, "EERR ") {
				errs[1] = fmt.Errorf("bad hello %q got %q, want EERR", hello, line)
				return
			}
		}
		ts[1], errs[1] = DialTCP(TCPConfig{Rank: 1, World: 2, Rendezvous: addr, Timeout: 10 * time.Second})
	}()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer ts[0].Close()
	defer ts[1].Close()
	ts[0].SendF32(1, 1, []float32{1})
	if got := ts[1].RecvF32(0, 1); got[0] != 1 {
		t.Fatalf("payload corrupted: %v", got)
	}
}

// TestRendezvousOutOfRangeErrorIsPointed: the rejected client's own DialTCP
// surfaces the server's explanation, not a bare EOF, and the server whose
// round times out names the ranks still missing.
func TestRendezvousOutOfRangeErrorIsPointed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serverErr := make(chan error, 1)
	go func() {
		// World=3 server: expects ranks 1,2; the test sends it a rank-5 client
		// (claiming world 3 on its own side would be rejected locally, so the
		// client lies about world size — exactly the misconfiguration case).
		_, err := DialTCP(TCPConfig{Rank: 0, World: 3, Rendezvous: addr, RendezvousListener: ln, Timeout: 3 * time.Second})
		serverErr <- err
	}()
	_, err = DialTCP(TCPConfig{Rank: 5, World: 9, Rendezvous: addr, Timeout: 5 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "rejected registration") || !strings.Contains(err.Error(), "outside [0,3)") {
		t.Fatalf("expected pointed rejection, got %v", err)
	}
	// The server times out: the cohort never completes.
	if err := <-serverErr; err == nil || !strings.Contains(err.Error(), "ranks [0] registered, ranks [1 2] missing") {
		t.Fatalf("expected the timed-out round to name missing ranks 1 and 2, got %v", err)
	}
}

// TestRendezvousDuplicateRegistrationLatestWins: a rank that re-registers
// while the round is still open (it timed out and redialed, or is rejoining
// across generations) replaces its stale registration; the stale connection
// is dropped and bootstrap completes with the fresh address. World 3 keeps
// the round open: stale rank-1 hello, fresh rank-1 hello, then rank 2
// completes the cohort.
func TestRendezvousDuplicateRegistrationLatestWins(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	var ts [3]*TCPTransport
	var errs [3]error
	staleClosed := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		ts[0], errs[0] = DialTCP(TCPConfig{
			Rank: 0, World: 3, Rendezvous: addr, RendezvousListener: ln, Timeout: 10 * time.Second,
		})
	}()
	go func() {
		defer wg.Done()
		// Stale registration for rank 1 pointing at a dead address.
		stale, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			errs[1] = err
			return
		}
		fmt.Fprint(stale, "EJOIN 1 127.0.0.1:1 0\n")
		go func() { // the server must close the stale conn when rank 1 re-registers
			_, err := bufio.NewReader(stale).ReadString('\n')
			staleClosed <- err
			stale.Close()
		}()
		time.Sleep(100 * time.Millisecond) // let the stale hello land first
		ts[1], errs[1] = DialTCP(TCPConfig{Rank: 1, World: 3, Rendezvous: addr, Timeout: 10 * time.Second})
	}()
	go func() {
		defer wg.Done()
		// Rank 2 registers last so the round stays open for the duplicate.
		time.Sleep(300 * time.Millisecond)
		ts[2], errs[2] = DialTCP(TCPConfig{Rank: 2, World: 3, Rendezvous: addr, Timeout: 10 * time.Second})
	}()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer func() {
		for _, tp := range ts {
			tp.Close()
		}
	}()
	select {
	case err := <-staleClosed:
		if err == nil {
			t.Fatal("stale registration received the address table; the fresh one should have replaced it")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stale registration was never dropped")
	}
	ts[0].SendF32(1, 1, []float32{9})
	if got := ts[1].RecvF32(0, 1); got[0] != 9 {
		t.Fatalf("payload corrupted after re-registration: %v", got)
	}
}

// TestDialTCPMeshFromAgreedTable: the elastic re-admission entry point —
// given pre-bound listeners and an agreed address table, every rank meshes
// without any rendezvous and the fabric behaves identically.
func TestDialTCPMeshFromAgreedTable(t *testing.T) {
	const k = 3
	lns := make([]net.Listener, k)
	addrs := make([]string, k)
	for r := 0; r < k; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	ts := make([]*TCPTransport, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ts[r], errs[r] = DialTCPMesh(
				TCPConfig{Rank: r, World: k, Timeout: 10 * time.Second}, lns[r], addrs)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tp := range ts {
			tp.Close()
		}
	})
	generic := make([]Transport, k)
	for i, tp := range ts {
		generic[i] = tp
	}
	NewGroup(generic).Run(func(w *Worker) {
		data := []float32{float32(w.Rank() + 1)}
		w.AllReduceSum(data, 40)
		if data[0] != 6 { // 1+2+3
			t.Errorf("rank %d: allreduce over mesh-dialed fabric = %v", w.Rank(), data[0])
		}
		w.Barrier()
	})
}

// TestDialTCPMeshRejectsBadTable: a table whose size disagrees with the
// world, or a rank outside it, must be rejected up front — and the listener
// DialTCPMesh was handed is closed on those paths too, as its doc promises
// (the elastic runner relies on it).
func TestDialTCPMeshRejectsBadTable(t *testing.T) {
	for _, c := range []struct {
		what  string
		cfg   TCPConfig
		addrs []string
	}{
		{"short address table", TCPConfig{Rank: 0, World: 3}, []string{"a", "b"}},
		{"rank outside the world", TCPConfig{Rank: 3, World: 3}, []string{"a", "b", "c"}},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DialTCPMesh(c.cfg, ln, c.addrs); err == nil {
			t.Errorf("%s must be rejected", c.what)
		}
		if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
			c.Close() // a leaked listener accepts this, so Accept cannot hang
		}
		if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
			t.Errorf("%s: the listener is still open after the rejection (Accept: %v)", c.what, err)
		}
		ln.Close()
	}
}

// TestAbortCloseConcurrent: the supervisor tears transports down from a
// different goroutine than the trainer that hit the failure; Abort and
// Close must be idempotent and safe to race on both backends.
func TestAbortCloseConcurrent(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		ts := loopbackTransports(t, 2)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(2)
			go func() { defer wg.Done(); ts[0].Abort() }()
			go func() { defer wg.Done(); ts[0].Close() }()
		}
		wg.Wait()
		ts[1].Close()
	})
	t.Run("chan", func(t *testing.T) {
		c := New(2, 0)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(2)
			tp := c.Worker(0).Transport()
			go func() { defer wg.Done(); tp.Abort() }()
			go func() { defer wg.Done(); tp.Close() }()
		}
		wg.Wait()
	})
}
