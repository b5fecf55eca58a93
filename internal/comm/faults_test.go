package comm

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestWithFaultsKillAtMessage: the victim's n'th payload send must panic
// with a *TransportError wrapping *InjectedFault at exactly the planned
// ordinal, and every peer must observe the death through the normal
// transport-failure path rather than deadlocking.
func TestWithFaultsKillAtMessage(t *testing.T) {
	const k, victim, atMsg = 3, 1, 4
	g := WithFaults(New(k, 0), KillAtMessage(victim, atMsg))
	panics := make([]any, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() { panics[r] = recover() }()
			w := g.Worker(r)
			for i := 0; ; i++ {
				w.SendF32((r+1)%k, i, []float32{float32(i)})
				w.RecvF32((r+k-1)%k, i)
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ranks did not unblock after the injected kill")
	}
	for r, p := range panics {
		te, ok := p.(*TransportError)
		if !ok {
			t.Fatalf("rank %d: panic value %T, want *TransportError", r, p)
		}
		var inj *InjectedFault
		if r == victim {
			if !errors.As(te, &inj) {
				t.Fatalf("victim error %v does not wrap *InjectedFault", te)
			}
			if inj.Rank != victim || inj.Message != atMsg {
				t.Fatalf("fault fired at wrong point: %+v", inj)
			}
		}
	}
}

// TestWithFaultsKillAtMessageDeterministic: the victim dies at the same
// message ordinal on every run — the property that makes mid-epoch kill
// tests reproducible.
func TestWithFaultsKillAtMessageDeterministic(t *testing.T) {
	run := func() int {
		g := WithFaults(New(2, 0), KillAtMessage(0, 7))
		var got int
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil && r == 0 {
						var inj *InjectedFault
						if errors.As(p.(*TransportError), &inj) {
							got = inj.Message
						}
					}
				}()
				w := g.Worker(r)
				for i := 0; ; i++ {
					if r == 0 {
						w.SendF32(1, i, []float32{1})
					} else {
						w.RecvF32(0, i)
					}
				}
			}(r)
		}
		wg.Wait()
		return got
	}
	if a, b := run(), run(); a != b || a != 7 {
		t.Fatalf("kill ordinal varied across runs: %d vs %d (want 7)", a, b)
	}
}

// TestWithFaultsISendCounted: async sends, copied or in a lent buffer, count
// toward the message ordinal like synchronous ones (the pipelined schedule
// sends only lent buffers).
func TestWithFaultsISendCounted(t *testing.T) {
	g := WithFaults(New(2, 0), KillAtMessage(0, 2))
	w := g.Worker(0)
	w.ISendF32(1, 1, []float32{1})       // msg 0
	w.ISendBufF32(1, 2, w.SendBufF32(1)) // msg 1
	defer func() {
		p := recover()
		te, ok := p.(*TransportError)
		if !ok {
			t.Fatalf("panic value %T, want *TransportError", p)
		}
		var inj *InjectedFault
		if !errors.As(te, &inj) || inj.Message != 2 {
			t.Fatalf("expected injected fault at message 2, got %v", te)
		}
	}()
	w.ISendF32(1, 3, []float32{3}) // msg 2: boom
	t.Fatal("third ISendF32 did not fire the fault")
}

// TestWithFaultsKillAtEpoch: MarkEpoch fires the kill on the planned rank
// at the planned epoch, returns nil everywhere else, fires only once, and
// poisons the group so peers fail too.
func TestWithFaultsKillAtEpoch(t *testing.T) {
	const k, victim, atEpoch = 3, 2, 2
	g := WithFaults(New(k, 0), KillAtEpoch(victim, atEpoch))
	for epoch := 0; epoch < atEpoch; epoch++ {
		for r := 0; r < k; r++ {
			if err := MarkEpoch(g.Worker(r).Transport(), epoch); err != nil {
				t.Fatalf("rank %d epoch %d: premature fault %v", r, epoch, err)
			}
		}
	}
	err := MarkEpoch(g.Worker(victim).Transport(), atEpoch)
	var inj *InjectedFault
	if !errors.As(err, &inj) || inj.Rank != victim || inj.Epoch != atEpoch {
		t.Fatalf("expected injected fault at epoch %d, got %v", atEpoch, err)
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("fault %v is not a *TransportError — recovery loops dispatch on that type", err)
	}
	// One-shot: marking again must not re-fire.
	if err := MarkEpoch(g.Worker(victim).Transport(), atEpoch+1); err != nil {
		t.Fatalf("fault fired twice: %v", err)
	}
	// The abort reached the fabric: a survivor's blocking op must fail.
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		g.Worker(0).RecvF32(1, 9)
	}()
	select {
	case p := <-done:
		if _, ok := p.(*TransportError); !ok {
			t.Fatalf("survivor saw %v, want *TransportError", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("survivor deadlocked after injected epoch kill")
	}
}

// TestMarkEpochNoOpOnPlainTransports: un-decorated endpoints ignore epoch
// marks, so drivers can call MarkEpoch unconditionally.
func TestMarkEpochNoOpOnPlainTransports(t *testing.T) {
	c := New(2, 0)
	for r := 0; r < 2; r++ {
		if err := MarkEpoch(c.Worker(r).Transport(), 3); err != nil {
			t.Fatalf("plain transport returned %v from MarkEpoch", err)
		}
	}
}

// TestWithFaultsDisarmedPlanIsInert: a NewFaultPlan with no trigger set
// never fires, and un-planned ranks train through unperturbed.
func TestWithFaultsDisarmedPlanIsInert(t *testing.T) {
	g := WithFaults(New(2, 0), NewFaultPlan(0))
	g.Run(func(w *Worker) {
		if err := MarkEpoch(w.Transport(), 0); err != nil {
			t.Errorf("disarmed plan fired: %v", err)
		}
		if w.Rank() == 0 {
			w.SendF32(1, 1, []float32{42})
		} else if got := w.RecvF32(0, 1); got[0] != 42 {
			t.Errorf("payload corrupted: %v", got)
		}
	})
}
