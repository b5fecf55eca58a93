package comm

import (
	"fmt"
	"sync"
)

// Transport is one rank's endpoint on a communication backend: tagged
// point-to-point sends and receives of float32 payloads among k ranks, a
// barrier, and exact payload-byte accounting. Two backends exist:
//
//   - ChanTransport: k goroutines in one process over Go channels
//     (allocation-free); created in bulk by New.
//   - TCPTransport: one OS process per rank over persistent TCP connections;
//     created by DialTCP with a rendezvous address.
//
// Both receive through the same inbox, which also holds the barrier and the
// payload counters (RecvF32, Barrier, BytesSent and MessagesSent are written
// once), so they differ only in how a message reaches it. A message lands
// there without its receiver's help — a channel-cluster sender pushes it in
// itself, a TCP demux goroutine drains the socket into it — so it arrives
// while the receiver computes, and a receive issued after that compute finds
// it waiting.
// Semantics every backend provides — the training protocol and the
// collectives in Worker rely on all four:
//
//   - messages of one (src, tag) stream arrive in send order, and streams
//     are independent: receives may name tags in any order;
//   - a send is complete once its message is queued, and blocks only for
//     backpressure (a bounded per-stream queue) — never to wait for the
//     receiver, and it never drops;
//   - a receive blocks until a message of its stream arrives or the
//     transport fails, in which case it panics with a *TransportError
//     (converted to an ordinary error at the epoch boundary by
//     RankTrainer.TrainEpoch) rather than deadlocking;
//   - BytesSent counts exactly 4 bytes per payload element and nothing else
//     (no headers, no barrier or other control messages), so byte
//     accounting is backend-independent and feeds the cost model unchanged;
//     it and MessagesSent only grow, so a stretch of traffic is the
//     difference of two readings.
//
// One ownership rule holds on every backend. A buffer from SendBufF32 is the
// caller's to fill until ISendBufF32, which takes it back. A received payload
// is the transport's, lent to the receiver until RecycleF32 — which is how a
// payload is staged once per side: the sender gathers straight into the
// buffer that travels (the outgoing frame on TCP), and the receiver reads
// straight out of the one that arrived. (Worker.SendF32 copies a caller's
// slice into a lent buffer, so that slice is free on return.) Backends need
// not support sending to the local rank; the training protocol never does.
type Transport interface {
	Rank() int
	Size() int
	RecvF32(src, tag int) []float32
	// SendBufF32 lends the caller a buffer of n float32s (contents undefined)
	// to gather a payload into: on TCP a view of a pooled outgoing frame's
	// payload region, on the channel backend a buffer from the cluster's
	// pool.
	SendBufF32(n int) []float32
	// ISendBufF32 sends a buffer SendBufF32 lent, and takes the buffer back:
	// the caller must not touch it afterwards. Every float32 send of a
	// backend goes through here.
	ISendBufF32(dst, tag int, buf []float32)
	// RecycleF32 hands a slice previously returned by RecvF32 back to the
	// transport for reuse: on TCP the incoming frame under it, on the channel
	// backend the lent buffer it travelled in. Optional — an unrecycled
	// payload is garbage collected — but it keeps steady-state epochs
	// allocation-free. The caller must not touch data afterwards.
	RecycleF32(data []float32)
	Barrier()
	BytesSent() int64
	MessagesSent() int64
	// Abort fails the transport: every blocked and subsequent send and
	// receive — on this rank and, transitively, on every peer — panics with
	// a descriptive error instead of waiting forever. Called when an epoch
	// dies mid-protocol so the other ranks are not left deadlocked on
	// messages that will never arrive.
	Abort()
	Close() error
}

// Worker is one rank's handle: the transport primitives plus the collectives
// built on top of them (the ring AllReduce). Methods on a
// Worker must be called only from the goroutine driving that rank.
type Worker struct {
	t Transport
}

// NewWorker wraps a transport endpoint.
func NewWorker(t Transport) *Worker { return &Worker{t: t} }

// Transport returns the underlying backend endpoint.
func (w *Worker) Transport() Transport { return w.t }

// Rank returns this worker's id in [0, Size).
func (w *Worker) Rank() int { return w.t.Rank() }

// Size returns the cluster size.
func (w *Worker) Size() int { return w.t.Size() }

// SendF32 sends a copy of a float32 payload to dst with a tag: it copies
// data into a buffer the transport lends and sends that, so one send path
// carries every float32 payload and the caller's slice is free on return.
func (w *Worker) SendF32(dst, tag int, data []float32) {
	buf := w.t.SendBufF32(len(data))
	copy(buf, data)
	w.t.ISendBufF32(dst, tag, buf)
}

// ISendF32 is SendF32: every send is complete once queued.
func (w *Worker) ISendF32(dst, tag int, data []float32) { w.SendF32(dst, tag, data) }

// RecvF32 receives the next float32 message of the (src, tag) stream; see
// Transport.
func (w *Worker) RecvF32(src, tag int) []float32 { return w.t.RecvF32(src, tag) }

// SendBufF32 lends a payload buffer; see Transport.SendBufF32.
func (w *Worker) SendBufF32(n int) []float32 { return w.t.SendBufF32(n) }

// ISendBufF32 sends a lent buffer; see Transport.ISendBufF32.
func (w *Worker) ISendBufF32(dst, tag int, buf []float32) { w.t.ISendBufF32(dst, tag, buf) }

// RecycleF32 returns a received payload to the transport's buffer pool; see
// Transport.RecycleF32.
func (w *Worker) RecycleF32(data []float32) { w.t.RecycleF32(data) }

// Barrier blocks until every rank has entered it.
func (w *Worker) Barrier() { w.t.Barrier() }

// AllReduceSum sums data elementwise across all workers; on return every
// worker's slice holds the global sum, bit-identical on every rank.
//
// The implementation is a ring reduce-scatter followed by a ring all-gather
// (the collective structure NCCL and Gloo use): data is split into m chunks;
// in m−1 steps each rank forwards a partially-reduced chunk to its successor
// while accumulating the chunk arriving from its predecessor, leaving rank r
// with the fully-reduced chunk (r+1) mod m; m−1 further forwarding steps
// distribute the finished chunks. Every rank sends 2(m−1)·n/m ≈ 2n floats
// regardless of m, versus the O(m·n) a reduce-to-root places on rank 0.
// Each chunk's final value is computed once and copied verbatim by the
// all-gather, so all ranks observe identical bits — on every backend, since
// the arithmetic never depends on how payloads move.
func (w *Worker) AllReduceSum(data []float32, tag int) {
	m := w.Size()
	n := len(data)
	if m == 1 || n == 0 {
		return
	}
	lo := func(c int) int { return c * n / m }
	hi := func(c int) int { return (c + 1) * n / m }
	rank := w.Rank()
	next := (rank + 1) % m
	prev := (rank + m - 1) % m

	// Every send copies its payload, so a chunk of data may go out as it
	// stands and be overwritten by the all-gather before it is consumed.
	w.SendF32(next, tag, data[lo(rank):hi(rank)])

	// Reduce-scatter: accumulate the incoming chunk into the received
	// buffer (data stays untouched until the final values arrive) and pass
	// it on. Forwarded and fully consumed buffers go back to the transport.
	var part []float32
	for s := 0; s < m-1; s++ {
		c := (rank - s - 1 + m) % m
		part = w.RecvF32(prev, tag)
		seg := data[lo(c):hi(c)]
		if len(part) != len(seg) {
			panic(fmt.Sprintf("comm: allreduce length mismatch %d vs %d", len(part), len(seg)))
		}
		for i, v := range seg {
			part[i] += v
		}
		if s < m-2 {
			w.SendF32(next, tag, part)
			w.RecycleF32(part)
		}
	}

	// part now holds the fully reduced chunk (rank+1) mod m.
	done := (rank + 1) % m
	copy(data[lo(done):hi(done)], part)

	// All-gather: circulate the finished chunks around the ring.
	w.SendF32(next, tag+1, part)
	w.RecycleF32(part)
	for s := 0; s < m-1; s++ {
		c := (rank - s + m) % m
		got := w.RecvF32(prev, tag+1)
		copy(data[lo(c):hi(c)], got)
		if s < m-2 {
			w.SendF32(next, tag+1, got)
		}
		w.RecycleF32(got)
	}
}

// Group drives k co-located transport endpoints from one process: one
// persistent Worker per rank plus the Run fan-out the in-process trainer
// uses. The endpoints can belong to any backend — k ChanTransports of one
// in-process cluster (what New returns) or k loopback TCPTransports (what
// the cross-backend equivalence tests build) — which is what makes
// core.NewParallelTrainerOver backend-agnostic.
type Group struct {
	workers []Worker
}

// NewGroup assembles a group from one endpoint per rank; ts[i] must be the
// endpoint for rank i and all endpoints must agree on the group size.
func NewGroup(ts []Transport) *Group {
	if len(ts) == 0 {
		panic("comm: empty transport group")
	}
	g := &Group{workers: make([]Worker, len(ts))}
	for i, t := range ts {
		if t.Rank() != i || t.Size() != len(ts) {
			panic(fmt.Sprintf("comm: transport %d reports rank %d of %d, want rank %d of %d",
				i, t.Rank(), t.Size(), i, len(ts)))
		}
		g.workers[i] = Worker{t: t}
	}
	return g
}

// Size returns the number of workers.
func (g *Group) Size() int { return len(g.workers) }

// Worker returns the handle for the given rank.
func (g *Group) Worker(rank int) *Worker {
	if rank < 0 || rank >= len(g.workers) {
		panic(fmt.Sprintf("comm: rank %d out of [0,%d)", rank, len(g.workers)))
	}
	return &g.workers[rank]
}

// Run executes fn concurrently on every worker and waits for all to finish.
// A panic in any worker is re-raised (first one wins) after all goroutines
// have stopped or panicked.
func (g *Group) Run(fn func(w *Worker)) {
	var wg sync.WaitGroup
	panics := make(chan any, len(g.workers))
	for r := range g.workers {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
			}()
			fn(g.Worker(rank))
		}(r)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// BytesSent returns the total payload bytes rank has sent.
func (g *Group) BytesSent(rank int) int64 { return g.workers[rank].t.BytesSent() }

// MessagesSent returns the number of messages sent by rank.
func (g *Group) MessagesSent(rank int) int64 { return g.workers[rank].t.MessagesSent() }

// Close closes every endpoint in the group and returns the first error.
func (g *Group) Close() error {
	var first error
	for r := range g.workers {
		if err := g.workers[r].t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
