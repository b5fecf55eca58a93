package core

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
)

// tcpLoopbackGroup bootstraps k TCP transports over 127.0.0.1 and wraps them
// in a comm.Group so the in-process trainer can drive real sockets.
func tcpLoopbackGroup(t testing.TB, k int) *comm.Group {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]comm.Transport, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := comm.TCPConfig{Rank: r, World: k, Rendezvous: ln.Addr().String(), Timeout: 10 * time.Second}
			if r == 0 {
				cfg.RendezvousListener = ln
			}
			ts[r], errs[r] = comm.DialTCP(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	g := comm.NewGroup(ts)
	t.Cleanup(func() { g.Close() })
	return g
}

// TestTCPBackendBitIdenticalToChan is the cross-backend equivalence proof:
// the same seeded dataset trained for 5 epochs over the in-process channel
// backend and over real loopback TCP sockets must produce bit-identical
// weights on every rank, bit-identical losses, and identical per-rank
// payload byte and message counts — for k ∈ {2, 4} and p < 1 (so boundary
// sampling, halo exchange, and the ring AllReduce all carry traffic). Beside
// the default test model, both architectures train with dropout on: the mask
// stream's draw order is part of the contract, and the TCP drain consumes
// peers in whatever order their frames land.
func TestTCPBackendBitIdenticalToChan(t *testing.T) {
	type input struct {
		name   string
		dsSeed uint64
		cfg    ParallelConfig
	}
	for _, k := range []int{2, 4} {
		inputs := []input{{"default", uint64(90 + k), ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 11}}}
		for _, arch := range []Arch{ArchSAGE, ArchGAT} {
			mc := ModelConfig{Arch: arch, Layers: 2, Hidden: 16, Dropout: 0.3, LR: 0.01, Seed: 42}
			inputs = append(inputs, input{string(arch), uint64(70 + k), ParallelConfig{Model: mc, P: 0.5, SampleSeed: 17}})
		}
		for _, in := range inputs {
			ds := testDataset(t, in.dsSeed)
			topo := testTopology(t, ds, k)
			chanTr, err := NewParallelTrainer(ds, topo, in.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tcpTr, err := NewParallelTrainerOver(ds, topo, in.cfg, tcpLoopbackGroup(t, k))
			if err != nil {
				t.Fatal(err)
			}

			const epochs = 5
			for e := 0; e < epochs; e++ {
				a := chanTr.TrainEpoch()
				b := tcpTr.TrainEpoch()
				if a.Loss != b.Loss {
					t.Fatalf("%s k=%d epoch %d: chan loss %.17g != tcp loss %.17g", in.name, k, e, a.Loss, b.Loss)
				}
				if a.CommBytes != b.CommBytes || a.ReduceBytes != b.ReduceBytes {
					t.Fatalf("%s k=%d epoch %d: traffic diverged: chan (%d,%d) vs tcp (%d,%d)",
						in.name, k, e, a.CommBytes, a.ReduceBytes, b.CommBytes, b.ReduceBytes)
				}
			}
			for r := 0; r < k; r++ {
				if d := MaxParamDiff(chanTr.Models[r], tcpTr.Models[r]); d != 0 {
					t.Fatalf("%s k=%d rank %d: weights diverged across backends by %v", in.name, k, r, d)
				}
				if cb, tb := chanTr.Cluster.BytesSent(r), tcpTr.Cluster.BytesSent(r); cb != tb {
					t.Fatalf("%s k=%d rank %d: chan sent %d payload bytes, tcp sent %d", in.name, k, r, cb, tb)
				}
				if cm, tm := chanTr.Cluster.MessagesSent(r), tcpTr.Cluster.MessagesSent(r); cm != tm {
					t.Fatalf("%s k=%d rank %d: chan sent %d messages, tcp sent %d", in.name, k, r, cm, tm)
				}
			}
		}
	}
}

// TestRankTrainerMatchesParallelTrainer: k independently constructed
// RankTrainers driven by hand over a group must replay exactly what the
// bundled ParallelTrainer computes — the property multi-process deployment
// rests on, since each OS process bootstraps its own RankTrainer.
func TestRankTrainerMatchesParallelTrainer(t *testing.T) {
	ds := testDataset(t, 96)
	const k = 3
	topo := testTopology(t, ds, k)
	cfg := ParallelConfig{Model: testModelConfig(), P: 0.4, SampleSeed: 5}

	ref, err := NewParallelTrainer(ds, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]*RankTrainer, k)
	for r := 0; r < k; r++ {
		if ranks[r], err = NewRankTrainer(ds, topo, cfg, r); err != nil {
			t.Fatal(err)
		}
	}
	g := comm.New(k, 0)
	for e := 0; e < 4; e++ {
		want := ref.TrainEpoch().Loss
		losses := make([]float64, k)
		g.Run(func(w *comm.Worker) {
			st, err := ranks[w.Rank()].TrainEpoch(w)
			if err != nil {
				t.Errorf("rank %d: %v", w.Rank(), err)
				return
			}
			losses[w.Rank()] = st.Loss
		})
		var got float64
		for _, l := range losses {
			got += l
		}
		if got != want {
			t.Fatalf("epoch %d: rank-wise loss %v != bundled %v", e, got, want)
		}
	}
	for r := 0; r < k; r++ {
		if d := MaxParamDiff(ref.Models[r], ranks[r].Model); d != 0 {
			t.Fatalf("rank %d diverged from bundled trainer by %v", r, d)
		}
	}
}

// TestEpochFailureSurfacesAsError: a panic inside one rank's epoch must come
// back as an error from TrainEpoch — and abort the transport so peers fail
// too instead of deadlocking on the unfinished protocol — on both backends.
func TestEpochFailureSurfacesAsError(t *testing.T) {
	ds := testDataset(t, 97)
	const k = 2
	topo := testTopology(t, ds, k)
	cfg := ParallelConfig{Model: testModelConfig(), P: 1, SampleSeed: 1}

	for _, backend := range []struct {
		name  string
		group func() *comm.Group
	}{
		{"chan", func() *comm.Group { return comm.New(k, 0) }},
		{"tcp", func() *comm.Group { return tcpLoopbackGroup(t, k) }},
	} {
		ranks := make([]*RankTrainer, k)
		for r := 0; r < k; r++ {
			var err error
			if ranks[r], err = NewRankTrainer(ds, topo, cfg, r); err != nil {
				t.Fatal(err)
			}
		}
		g := backend.group()
		errsCh := make(chan error, k)
		done := make(chan struct{})
		go func() {
			g.Run(func(w *comm.Worker) {
				if w.Rank() == 1 {
					// Rank 1 dies before participating; rank 0 is left
					// mid-protocol.
					w.Transport().Abort()
					errsCh <- nil
					return
				}
				_, err := ranks[w.Rank()].TrainEpoch(w)
				errsCh <- err
			})
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: surviving rank deadlocked on the dead peer", backend.name)
		}
		var got error
		for i := 0; i < k; i++ {
			if err := <-errsCh; err != nil {
				got = err
			}
		}
		if got == nil {
			t.Fatalf("%s: rank 0 trained through a dead peer without error", backend.name)
		}
	}
}

// resizeOnce is a comm.Transport whose first float32 send on tag goes out
// delta floats longer or shorter than the payload the engine gathered; every
// other send passes through. sent records the gathered length.
type resizeOnce struct {
	comm.Transport
	tag, delta int
	sent       int
}

func (t *resizeOnce) ISendBufF32(dst, tag int, buf []float32) {
	if tag == t.tag && t.sent == 0 {
		t.sent = len(buf)
		resized := t.Transport.SendBufF32(len(buf) + t.delta)
		copy(resized, buf)
		buf = resized
	}
	t.Transport.ISendBufF32(dst, tag, buf)
}

// TestHaloPayloadLengthChecked: a halo payload of the wrong length, one float
// short or one too many, must stop the receiving rank's epoch with an error
// naming the rank, layer and peer — in the forward drain and in the backward
// fold alike — rather than a bare slice-bounds panic or silently accepted
// rows. Rank 0 sends the bad payload on layer 1's exchange, rank 1 receives
// it.
func TestHaloPayloadLengthChecked(t *testing.T) {
	ds := testDataset(t, 97)
	const k, l = 2, 1
	topo := testTopology(t, ds, k)
	cfg := ParallelConfig{Model: testModelConfig(), P: 1, SampleSeed: 1}
	for _, c := range []struct {
		name       string
		tag, delta int
	}{
		{"forward/short", tagForward + l, -1},
		{"forward/long", tagForward + l, 1},
		{"backward/short", tagBackward + l, -1},
		{"backward/long", tagBackward + l, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			ranks := make([]*RankTrainer, k)
			for r := range ranks {
				var err error
				if ranks[r], err = NewRankTrainer(ds, topo, cfg, r); err != nil {
					t.Fatal(err)
				}
			}
			inner := comm.New(k, 0)
			bad := &resizeOnce{Transport: inner.Worker(0).Transport(), tag: c.tag, delta: c.delta}
			g := comm.NewGroup([]comm.Transport{bad, inner.Worker(1).Transport()})
			errs := make([]error, k)
			done := make(chan struct{})
			go func() {
				defer close(done)
				g.Run(func(w *comm.Worker) { _, errs[w.Rank()] = ranks[w.Rank()].TrainEpoch(w) })
			}()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("a wrong-length halo payload deadlocked the epoch")
			}
			if bad.sent == 0 {
				t.Fatalf("rank 0 sent nothing on tag %d", c.tag)
			}
			want := fmt.Sprintf("core: rank 1 layer %d: got %d floats from 0, want %d", l, bad.sent+c.delta, bad.sent)
			if errs[1] == nil || !strings.Contains(errs[1].Error(), want) {
				t.Fatalf("rank 1's epoch returned %v, want an error containing %q", errs[1], want)
			}
		})
	}
}

// TestEvaluateFailureSurfacesAsError: evaluation is a collective over the
// same transport as an epoch and must fail like one. A rank killed between
// two of the halo sends of an evaluation gets the injected fault back as an
// error, and every survivor an error carrying a *comm.TransportError — the
// type the elastic loop keys recovery on — instead of a deadlock or a panic,
// on both backends.
func TestEvaluateFailureSurfacesAsError(t *testing.T) {
	ds := testDataset(t, 98)
	const k, epochs, victim = 3, 2, 2
	topo := testTopology(t, ds, k)
	cfg := ParallelConfig{Model: testModelConfig(), P: 0.5, SampleSeed: 1}

	// Where the victim's sends of the evaluation lie in its send sequence:
	// the protocol's sends are in program order and the same on every backend.
	probe, err := NewParallelTrainer(ds, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		probe.TrainEpoch()
	}
	before := probe.Cluster.MessagesSent(victim)
	probe.Evaluate(ds.TestMask)
	killAt := int(before + (probe.Cluster.MessagesSent(victim)-before)/2)

	for _, backend := range []struct {
		name  string
		group func() *comm.Group
	}{
		{"chan", func() *comm.Group { return comm.New(k, 0) }},
		{"tcp", func() *comm.Group { return tcpLoopbackGroup(t, k) }},
	} {
		ranks := make([]*RankTrainer, k)
		for r := range ranks {
			if ranks[r], err = NewRankTrainer(ds, topo, cfg, r); err != nil {
				t.Fatal(err)
			}
		}
		g := comm.WithFaults(backend.group(), comm.KillAtMessage(victim, killAt))
		errs := make([]error, k)
		done := make(chan struct{})
		go func() {
			defer close(done)
			g.Run(func(w *comm.Worker) {
				rt := ranks[w.Rank()]
				for e := 0; e < epochs; e++ {
					if _, err := rt.TrainEpoch(w); err != nil {
						t.Errorf("%s: rank %d died in epoch %d, before the evaluation: %v", backend.name, w.Rank(), e, err)
						return
					}
				}
				_, errs[w.Rank()] = rt.Evaluate(w, ds.TestMask)
			})
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: the survivors deadlocked on the peer killed mid-evaluation", backend.name)
		}
		for r, err := range errs {
			var te *comm.TransportError
			if !errors.As(err, &te) {
				t.Errorf("%s: rank %d: evaluation through a dead peer returned %v, want an error carrying *comm.TransportError", backend.name, r, err)
			}
		}
		var inj *comm.InjectedFault
		if !errors.As(errs[victim], &inj) || inj.Message != killAt {
			t.Errorf("%s: the victim's error %v does not carry the fault injected at message %d", backend.name, errs[victim], killAt)
		}
	}
}

// TestMessagesPerPass pins every message a pass sends, per rank, over both
// backends: a training epoch sends one forward payload per layer to each peer
// it serves rows this epoch, one gradient payload per layer above the first
// to each peer it received rows from, and the gradient AllReduce's 2(k−1);
// an evaluation sends the forward payloads and one score-count message to
// each of its k−1 peers.
// Nothing else rides along — in particular no word about what a rank
// sampled, which each owner computes instead (slotSampler) — so a per-epoch
// control message cannot come back unnoticed. p=0 moves no halo at all.
func TestMessagesPerPass(t *testing.T) {
	ds := testDataset(t, 8)
	const k = 3
	topo := testTopology(t, ds, k)
	nonEmpty := func(lists [][]int32) int {
		n := 0
		for _, l := range lists {
			if len(l) > 0 {
				n++
			}
		}
		return n
	}
	for _, backend := range []struct {
		name  string
		group func() *comm.Group
	}{
		{"chan", func() *comm.Group { return comm.New(k, 0) }},
		{"tcp", func() *comm.Group { return tcpLoopbackGroup(t, k) }},
	} {
		for _, p := range []float64{0, 0.5, 1} {
			cfg := ParallelConfig{Model: testModelConfig(), P: p, SampleSeed: 5}
			tr, err := NewParallelTrainerOver(ds, topo, cfg, backend.group())
			if err != nil {
				t.Fatal(err)
			}
			layers := cfg.Model.Layers
			before := make([]int64, k) // each rank's count when the pass began
			mark := func() {
				for r := range before {
					before[r] = tr.Cluster.MessagesSent(r)
				}
			}
			check := func(pass string, e int, want func(lp *LocalPartition) int) {
				for r, rt := range tr.Ranks {
					if got, want := tr.Cluster.MessagesSent(r)-before[r], int64(want(rt.LP)); got != want {
						t.Errorf("%s p=%v %s %d rank %d: sent %d messages, want %d", backend.name, p, pass, e, r, got, want)
					}
				}
			}
			for e := 0; e < 3; e++ {
				mark()
				tr.TrainEpoch()
				check("epoch", e, func(lp *LocalPartition) int {
					blocks := 0 // peers with a non-empty block of halo rows
					for j := 0; j < k; j++ {
						if lp.haloPtr[j+1] > lp.haloPtr[j] {
							blocks++
						}
					}
					return layers*nonEmpty(lp.sendRows) + (layers-1)*blocks + 2*(k-1)
				})
				mark()
				tr.Evaluate(ds.ValMask)
				check("evaluation after epoch", e, func(lp *LocalPartition) int {
					return layers*nonEmpty(lp.sendRows) + k - 1
				})
			}
		}
	}
}
