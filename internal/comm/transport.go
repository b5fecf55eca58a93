package comm

import (
	"fmt"
	"sync"
)

// Transport is one rank's endpoint on a communication backend: tagged
// point-to-point sends and receives of float32/int32 payloads among k ranks,
// a barrier, and exact payload-byte accounting. Two backends exist:
//
//   - ChanTransport: k goroutines in one process over Go channels
//     (allocation-free); created in bulk by New.
//   - TCPTransport: one OS process per rank over persistent TCP connections;
//     created by DialTCP with a rendezvous address.
//
// Semantics every backend must provide — the training protocol and the
// collectives in Worker rely on all four:
//
//   - messages between a (src,dst) pair with the same tag arrive in send
//     order (per-pair FIFO);
//   - Send blocks only for backpressure (bounded queues) and never drops;
//   - Recv blocks until a matching message arrives or the transport fails,
//     in which case it panics with a descriptive error (converted to an
//     ordinary error at the epoch boundary by RankTrainer.TrainEpoch)
//     rather than deadlocking;
//   - BytesSent counts exactly 4 bytes per payload element and nothing else
//     (no headers, no barrier traffic), so byte accounting is
//     backend-independent and feeds the cost model unchanged.
//
// One ownership rule holds on every backend. A caller's slice is free when
// SendF32 or ISendF32 returns: the transport has copied it into a buffer of
// its own. A buffer from SendBufF32 is the caller's to fill until
// ISendBufF32, which takes it back. A received payload is the transport's,
// lent to the receiver until RecycleF32 — which is how a payload is staged
// once per side: the sender gathers straight into the buffer that travels
// (the outgoing frame on TCP), and the receiver reads straight out of the one
// that arrived. Backends need not support sending to the local rank; the
// training protocol never does.
type Transport interface {
	Rank() int
	Size() int
	SendF32(dst, tag int, data []float32)
	SendI32(dst, tag int, data []int32)
	RecvF32(src, tag int) []float32
	RecvI32(src, tag int) []int32
	// ISendF32 initiates a nonblocking tagged send of a copy of data and
	// returns a completion handle; it is SendBufF32, a copy, and ISendBufF32.
	// Ordering with blocking sends is preserved (one FIFO per pair).
	ISendF32(dst, tag int, data []float32) PendingSend
	// SendBufF32 lends the caller a buffer of n float32s (contents undefined)
	// to gather a payload into: on TCP a view of a pooled outgoing frame's
	// payload region, on the channel backend a buffer from the cluster's
	// pool.
	SendBufF32(n int) []float32
	// ISendBufF32 initiates a nonblocking tagged send of a buffer SendBufF32
	// lent, and takes the buffer back: the caller must not touch it
	// afterwards. Every float32 send of a backend goes through here.
	ISendBufF32(dst, tag int, buf []float32) PendingSend
	// IRecvF32Notify posts a nonblocking receive for the next float32
	// message with the given tag from src, and arranges for token to be sent
	// on notify exactly once when that message becomes consumable — the
	// select-any primitive: a caller with several posted receives blocks on
	// one channel and consumes whichever peer's payload lands first. Both
	// backends progress in the background — the channel fabric is push-based
	// and the TCP demux goroutines drain the sockets — so the payload arrives
	// while the caller computes; the handle's Wait only dequeues it (or
	// blocks until arrival). Wait exactly once.
	//
	// notify must have spare capacity for every outstanding notification
	// posted on it (the transport sends without selecting). If the transport
	// fails or the peer leaves before the message arrives, the token is
	// still delivered and the matching Wait panics with the descriptive
	// error, so a drain never deadlocks on a notification.
	//
	// Within a transport's lifetime a given (src, tag) stream must be
	// consumed either always through notify-posted receives or always
	// through RecvF32; mixing strands arrival credits (see notifyReg).
	IRecvF32Notify(src, tag int, notify chan<- int, token int) PendingRecvF32
	// RecycleF32 hands a slice previously returned by RecvF32 (or a recv
	// handle's Wait) back to the transport for reuse: on TCP the incoming
	// frame under it, on the channel backend the lent buffer it travelled in.
	// Optional — an unrecycled payload is garbage collected — but it keeps
	// steady-state epochs allocation-free. The caller must not touch data
	// afterwards.
	RecycleF32(data []float32)
	Barrier()
	BytesSent() int64
	MessagesSent() int64
	ResetCounters()
	// Abort fails the transport: every blocked and subsequent Send/Recv —
	// on this rank and, transitively, on every peer — panics with a
	// descriptive error instead of waiting forever. Called when an epoch
	// dies mid-protocol so the other ranks are not left deadlocked on
	// messages that will never arrive.
	Abort()
	Close() error
}

// PendingSend is the completion handle of a nonblocking ISendF32. The zero
// value is an already-completed send (what the channel backend returns: its
// sends complete once the message is on the fabric). For the TCP backend,
// Wait blocks until the frame has been handed to the OS by the peer's writer
// goroutine, panicking with a *TransportError if the transport fails first.
// Waiting is optional — the epoch protocol never does; the caller's slice is
// free as soon as ISendF32 returns, and a lent buffer is the transport's.
//
// The handle is a concrete struct rather than an interface on purpose: the
// engine creates one per halo message per epoch, and an interface value
// would heap-allocate on the hot path. A future backend with its own async
// completion story should generalize the fields (or swap in a small
// completion closure) rather than bolt on a parallel handle type.
type PendingSend struct {
	t   *TCPTransport
	p   *tcpPeer
	seq uint64
}

// Wait blocks until the send has completed (see type doc).
func (s PendingSend) Wait() {
	if s.t != nil {
		s.t.waitWritten(s.p, s.seq)
	}
}

// PendingRecvF32 is the handle of a posted nonblocking receive; Wait returns
// the payload, blocking until it arrives or the transport fails (panic with
// a descriptive error, like RecvF32). Wait must be called exactly once.
type PendingRecvF32 struct {
	t        Transport
	src, tag int
}

// Wait dequeues the posted receive's payload (see type doc).
func (r PendingRecvF32) Wait() []float32 { return r.t.RecvF32(r.src, r.tag) }

// Worker is one rank's handle: the transport primitives plus the collectives
// built on top of them (ring AllReduce, variable AllGather). Methods on a
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

// SendF32 sends a copy of a float32 payload to dst with a tag, blocking until
// it is handed off.
func (w *Worker) SendF32(dst, tag int, data []float32) { w.t.SendF32(dst, tag, data) }

// SendI32 sends an int32 payload to dst with a tag.
func (w *Worker) SendI32(dst, tag int, data []int32) { w.t.SendI32(dst, tag, data) }

// RecvF32 receives the next float32 message from src, which must carry the
// expected tag; a tag mismatch means a protocol bug and panics.
func (w *Worker) RecvF32(src, tag int) []float32 { return w.t.RecvF32(src, tag) }

// RecvI32 receives the next int32 message from src with the expected tag.
func (w *Worker) RecvI32(src, tag int) []int32 { return w.t.RecvI32(src, tag) }

// ISendF32 initiates a nonblocking send; see Transport.ISendF32.
func (w *Worker) ISendF32(dst, tag int, data []float32) PendingSend {
	return w.t.ISendF32(dst, tag, data)
}

// SendBufF32 lends a payload buffer; see Transport.SendBufF32.
func (w *Worker) SendBufF32(n int) []float32 { return w.t.SendBufF32(n) }

// ISendBufF32 sends a lent buffer; see Transport.ISendBufF32.
func (w *Worker) ISendBufF32(dst, tag int, buf []float32) PendingSend {
	return w.t.ISendBufF32(dst, tag, buf)
}

// sendCopy is SendF32 and ISendF32 on every backend and decorator: copy the
// caller's slice into a lent buffer and send that, so one send path carries
// every float32 payload.
func sendCopy(t Transport, dst, tag int, data []float32) PendingSend {
	buf := t.SendBufF32(len(data))
	copy(buf, data)
	return t.ISendBufF32(dst, tag, buf)
}

// IRecvF32Notify posts a nonblocking receive with a completion
// notification; see Transport.IRecvF32Notify.
func (w *Worker) IRecvF32Notify(src, tag int, notify chan<- int, token int) PendingRecvF32 {
	return w.t.IRecvF32Notify(src, tag, notify, token)
}

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

// AllGatherI32 gathers each worker's variable-length int32 slice; the result
// is indexed by rank and identical on every worker.
func (w *Worker) AllGatherI32(data []int32, tag int) [][]int32 {
	m := w.Size()
	out := make([][]int32, m)
	own := make([]int32, len(data))
	copy(own, data)
	out[w.Rank()] = own
	for dst := 0; dst < m; dst++ {
		if dst != w.Rank() {
			w.SendI32(dst, tag, own)
		}
	}
	for src := 0; src < m; src++ {
		if src != w.Rank() {
			out[src] = w.RecvI32(src, tag)
		}
	}
	return out
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

// BytesSent returns the total payload bytes sent by rank since the last
// ResetCounters.
func (g *Group) BytesSent(rank int) int64 { return g.workers[rank].t.BytesSent() }

// TotalBytesSent sums BytesSent over all workers.
func (g *Group) TotalBytesSent() int64 {
	var t int64
	for r := range g.workers {
		t += g.workers[r].t.BytesSent()
	}
	return t
}

// MessagesSent returns the number of messages sent by rank.
func (g *Group) MessagesSent(rank int) int64 { return g.workers[rank].t.MessagesSent() }

// ResetCounters zeroes all byte and message counters.
func (g *Group) ResetCounters() {
	for r := range g.workers {
		g.workers[r].t.ResetCounters()
	}
}

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
