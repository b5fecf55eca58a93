package comm

import (
	"sync"
	"testing"
	"time"
)

// TestNotifyRecvBothBackends: the select-any primitive must deliver one
// token per notified message on both backends, whether the message arrives
// before or after the registration, and the receive after it must return
// the payload.
func TestNotifyRecvBothBackends(t *testing.T) {
	run := func(t *testing.T, send func(dst, tag int, data []float32), recvEnd Transport) {
		notify := make(chan int, 4)

		// Message before registration.
		send(recvEnd.Rank(), 7, []float32{1, 2})
		time.Sleep(20 * time.Millisecond) // let the TCP demux route it
		recvEnd.IRecvF32Notify(0, 7, notify, 42)
		select {
		case tok := <-notify:
			if tok != 42 {
				t.Fatalf("token %d, want 42", tok)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("no notification for an already-arrived message")
		}
		if got := recvEnd.RecvF32(0, 7); len(got) != 2 || got[0] != 1 {
			t.Fatalf("payload corrupted: %v", got)
		}

		// Registration before message.
		recvEnd.IRecvF32Notify(0, 7, notify, 43)
		select {
		case tok := <-notify:
			t.Fatalf("spurious token %d before any message", tok)
		case <-time.After(30 * time.Millisecond):
		}
		send(recvEnd.Rank(), 7, []float32{9})
		select {
		case tok := <-notify:
			if tok != 43 {
				t.Fatalf("token %d, want 43", tok)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("no notification after send")
		}
		if got := recvEnd.RecvF32(0, 7); len(got) != 1 || got[0] != 9 {
			t.Fatalf("payload corrupted: %v", got)
		}
	}

	t.Run("chan", func(t *testing.T) {
		g := New(2, 0)
		defer g.Close()
		run(t, func(dst, tag int, data []float32) {
			g.Worker(0).SendF32(dst, tag, data)
		}, g.Worker(1).Transport())
	})
	t.Run("tcp", func(t *testing.T) {
		ts := loopbackTransports(t, 2)
		run(t, func(dst, tag int, data []float32) {
			ts[0].SendF32(dst, tag, data)
		}, ts[1])
	})
}

// TestNotifyArrivalOrder: with several posted receives, tokens must arrive
// in message-arrival order, not rank order — the property the arrival-order
// halo drain is built on.
func TestNotifyArrivalOrder(t *testing.T) {
	const k = 4
	g := New(k, 0)
	defer g.Close()
	var wg sync.WaitGroup
	// Peers 1..3 send to rank 0 in reverse rank order, spaced far enough
	// apart that delivery order is unambiguous.
	for i, src := range []int{3, 2, 1} {
		wg.Add(1)
		go func(i, src int) {
			defer wg.Done()
			time.Sleep(time.Duration(i*60) * time.Millisecond)
			g.Worker(src).SendF32(0, 5, []float32{float32(src)})
		}(i, src)
	}
	notify := make(chan int, k)
	recv := g.Worker(0)
	for src := 1; src < k; src++ {
		recv.IRecvF32Notify(src, 5, notify, src)
	}
	var order []int
	for i := 0; i < k-1; i++ {
		select {
		case src := <-notify:
			if got := recv.RecvF32(src, 5); len(got) != 1 || got[0] != float32(src) {
				t.Fatalf("payload from %d corrupted: %v", src, got)
			}
			order = append(order, src)
		case <-time.After(5 * time.Second):
			t.Fatal("drain stalled")
		}
	}
	wg.Wait()
	if order[0] != 3 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("tokens in order %v, want send order [3 2 1]", order)
	}
}

// TestNotifyFlushOnAbort: a drain blocked on a notification must be woken
// by a transport failure, and the matching receive must then panic with the
// transport error instead of hanging.
func TestNotifyFlushOnAbort(t *testing.T) {
	g := New(2, 0)
	notify := make(chan int, 1)
	g.Worker(1).IRecvF32Notify(0, 9, notify, 1)
	go g.Worker(0).Transport().Abort()
	select {
	case <-notify:
	case <-time.After(2 * time.Second):
		t.Fatal("abort did not flush the posted notification")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RecvF32 after abort must panic with a transport error")
		}
	}()
	g.Worker(1).RecvF32(0, 9)
}

// TestNotifyFlushOnPeerClose (TCP): a peer's graceful goodbye must wake
// notifications posted against it.
func TestNotifyFlushOnPeerClose(t *testing.T) {
	ts := loopbackTransports(t, 2)
	notify := make(chan int, 1)
	ts[1].IRecvF32Notify(0, 9, notify, 1)
	go ts[0].Close()
	select {
	case <-notify:
	case <-time.After(5 * time.Second):
		t.Fatal("peer close did not flush the posted notification")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RecvF32 after peer close must panic")
		}
	}()
	ts[1].RecvF32(0, 9)
}

// TestNotifyAfterPeerClose (TCP): a notification posted AFTER the peer's
// goodbye has been processed must also fire immediately — the peer's read
// loop is gone, so nobody else could ever wake the waiter — and the
// matching receive reports the departure.
func TestNotifyAfterPeerClose(t *testing.T) {
	ts := loopbackTransports(t, 2)
	if err := ts[0].Close(); err != nil {
		t.Fatal(err)
	}
	// Wait until rank 1's read loop has demuxed the goodbye; only then is
	// the "registration races ahead of the departure marker" window closed
	// and the post-departure path the one actually exercised.
	select {
	case <-ts[1].gone[0]:
	case <-time.After(5 * time.Second):
		t.Fatal("rank 1 never observed the goodbye")
	}
	notify := make(chan int, 1)
	ts[1].IRecvF32Notify(0, 9, notify, 7)
	select {
	case tok := <-notify:
		if tok != 7 {
			t.Fatalf("token %d, want 7", tok)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("notification posted after peer close never fired")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RecvF32 after departed-peer notification must panic")
		}
	}()
	ts[1].RecvF32(0, 9)
}

// TestNotifyLatencyOrderInversion: under a skewed LinkModel, notification
// order must follow the modeled completion times — the fast link's message
// overtakes the slow link's even though the slow one was sent first and has
// the lower rank.
func TestNotifyLatencyOrderInversion(t *testing.T) {
	const k = 3
	g := WithLinkModel(New(k, 0), LinkModel{
		Latency: time.Millisecond,
		PerLink: map[Link]time.Duration{
			{Src: 1, Dst: 0}: 150 * time.Millisecond,
			{Src: 2, Dst: 0}: 10 * time.Millisecond,
		},
	})
	defer g.Close()
	g.Run(func(w *Worker) {
		switch w.Rank() {
		case 1:
			w.SendF32(0, 3, []float32{1})
		case 2:
			time.Sleep(20 * time.Millisecond) // rank 1's send is long gone
			w.SendF32(0, 3, []float32{2})
		case 0:
			notify := make(chan int, k)
			w.IRecvF32Notify(1, 3, notify, 1)
			w.IRecvF32Notify(2, 3, notify, 2)
			first := <-notify
			second := <-notify
			if first != 2 || second != 1 {
				t.Errorf("completion order (%d,%d), want fast link first (2,1)", first, second)
			}
			if got := w.RecvF32(2, 3); got[0] != 2 {
				t.Errorf("fast payload corrupted: %v", got)
			}
			if got := w.RecvF32(1, 3); got[0] != 1 {
				t.Errorf("slow payload corrupted: %v", got)
			}
		}
	})
}
