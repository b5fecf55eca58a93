// Package comm provides the message-passing substrate that stands in for
// Gloo/NCCL in the paper's setup: tagged point-to-point sends and receives,
// AllReduce, variable AllGather, barriers, and per-rank byte accounting. The
// byte counters are exact and feed the cost model that projects wall-clock
// times onto the paper's hardware profiles.
//
// Backends are pluggable behind the Transport interface. The in-process
// backend (one goroutine per partition over Go channels, created by New)
// remains the fast default; the TCP backend (one OS process per rank, created
// by DialTCP) runs the same protocol across real sockets and is proven
// bit-identical to the channel backend by the cross-backend tests in
// internal/core. On both, a float32 payload is staged once per side: the
// sender gathers it into a buffer the transport lends (SendBufF32), and the
// receiver reads it where it landed until RecycleF32 takes it back — on the
// channel backend the two are the same buffer, on TCP the outgoing and the
// incoming frame.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// message is one tagged payload between a (src,dst) pair. Exactly one of
// F32/I32 is non-nil.
type message struct {
	tag int
	f32 []float32
	i32 []int32
}

// chanState is the shared fabric of one in-process cluster: the all-to-all
// channel matrix, the barrier, and the per-rank counters.
type chanState struct {
	m         int
	chans     [][]chan message // chans[src][dst]
	barrier   *reusableBarrier
	bytesSent []atomic.Int64 // per source rank
	msgsSent  []atomic.Int64
	regs      []notifyReg      // per destination rank: completion notifications
	bufs      bufPool[float32] // lent payload buffers, refilled by RecycleF32

	failErr error // written once before failCh closes
	failOn  sync.Once
	failCh  chan struct{}
}

// fail records the first failure and wakes every blocked send and receive
// on the shared fabric.
func (s *chanState) fail(err error) {
	s.failOn.Do(func() {
		s.failErr = err
		close(s.failCh)
		s.barrier.abort()
		for r := range s.regs {
			s.regs[r].flush()
		}
	})
}

// New creates an in-process group of m workers connected all-to-all with
// Go channels: a Group over ChanTransports.
//
// queueCap bounds the number of outstanding messages per directed (src,dst)
// pair; 0 selects the default of 256. The bound matters because a send to a
// full pair queue blocks until the receiver drains it — messages are never
// dropped — so queueCap only has to cover the maximum number of messages one
// rank can have in flight toward a single peer. For the training protocol
// that is 1 position message + L forward + L−1 backward halo messages per
// epoch toward any one peer, plus 2(m−1) ring AllReduce messages toward the
// ring successor; since the ring lets no rank run more than two collectives
// ahead of its successor, at most two epochs' worth can ever be queued, so
// capacity ≥ 2·(2L + 2(m−1) + 1) guarantees senders never stall. The default
// 256 covers every paper configuration (L ≤ 6, m ≤ 32 needs ≤ 150); larger
// setups still run correctly, senders just block for backpressure.
func New(m int, queueCap int) *Group {
	if m <= 0 {
		panic(fmt.Sprintf("comm: cluster size %d", m))
	}
	if queueCap <= 0 {
		queueCap = defaultQueueCap
	}
	s := &chanState{
		m:         m,
		chans:     make([][]chan message, m),
		barrier:   newBarrier(m),
		bytesSent: make([]atomic.Int64, m),
		msgsSent:  make([]atomic.Int64, m),
		regs:      make([]notifyReg, m),
		failCh:    make(chan struct{}),
	}
	ts := make([]Transport, m)
	for r := 0; r < m; r++ {
		s.chans[r] = make([]chan message, m)
		for d := 0; d < m; d++ {
			s.chans[r][d] = make(chan message, queueCap)
		}
		ts[r] = &ChanTransport{s: s, rank: r}
	}
	return NewGroup(ts)
}

// defaultQueueCap is the per-pair queue depth both backends use when the
// caller passes 0; see New for the derivation of the bound.
const defaultQueueCap = 256

// ChanTransport is one rank's endpoint on the in-process channel backend.
// A float32 payload travels in a buffer lent from the cluster's pool: the
// sender gathers into it (or SendF32 copies into it), the message carries it
// by reference, and the receiver's RecycleF32 returns it to the pool — so a
// caller's own slice is free when a send returns, as on TCP.
type ChanTransport struct {
	s    *chanState
	rank int
}

// Rank returns this endpoint's id in [0, Size).
func (t *ChanTransport) Rank() int { return t.rank }

// Size returns the cluster size.
func (t *ChanTransport) Size() int { return t.s.m }

// send enqueues one message, blocking for backpressure but waking with a
// panic if the cluster is aborted while blocked.
func (t *ChanTransport) send(dst int, msg message) {
	select {
	case t.s.chans[t.rank][dst] <- msg:
	default:
		select {
		case t.s.chans[t.rank][dst] <- msg:
		case <-t.s.failCh:
			panic(&TransportError{Rank: t.rank, Err: t.s.failErr})
		}
	}
}

// SendF32 sends a copy of a float32 payload to dst with a tag.
func (t *ChanTransport) SendF32(dst, tag int, data []float32) {
	sendCopy(t, dst, tag, data).Wait()
}

// SendI32 sends an int32 payload to dst with a tag.
func (t *ChanTransport) SendI32(dst, tag int, data []int32) {
	t.account(4 * len(data))
	t.send(dst, message{tag: tag, i32: data})
}

// ISendF32 sends a copy of data; see ISendBufF32.
func (t *ChanTransport) ISendF32(dst, tag int, data []float32) PendingSend {
	return sendCopy(t, dst, tag, data)
}

// SendBufF32 lends the caller an n-element buffer from the cluster's pool.
func (t *ChanTransport) SendBufF32(n int) []float32 { return t.s.bufs.get(n) }

// ISendBufF32 puts a lent buffer on the fabric by reference. A send is
// complete once the message is on the fabric, so the returned handle is
// already done; it blocks only for queue backpressure. The arrival is stamped
// into the destination's notification ledger before the enqueue, so a
// notified consumer's receive can block only on the enqueue itself.
func (t *ChanTransport) ISendBufF32(dst, tag int, buf []float32) PendingSend {
	t.account(4 * len(buf))
	t.s.regs[dst].arrived(t.rank, tag)
	t.send(dst, message{tag: tag, f32: buf})
	return PendingSend{}
}

// IRecvF32Notify posts a nonblocking receive with a completion
// notification; see Transport.IRecvF32Notify. The fabric is push-based (the
// sender enqueues directly into the per-pair channel), so the message makes
// progress regardless of when Wait runs; senders stamp the destination's
// ledger before enqueuing, so the token fires no earlier than the send that
// satisfies it.
func (t *ChanTransport) IRecvF32Notify(src, tag int, notify chan<- int, token int) PendingRecvF32 {
	t.s.regs[t.rank].register(src, tag, notify, token)
	return PendingRecvF32{t: t, src: src, tag: tag}
}

// RecycleF32 returns a received payload's buffer to the cluster's pool.
func (t *ChanTransport) RecycleF32(data []float32) { t.s.bufs.put(data) }

// recv dequeues the next message from src, preferring queued messages over
// an abort so in-flight data is never lost.
func (t *ChanTransport) recv(src int) message {
	select {
	case msg := <-t.s.chans[src][t.rank]:
		return msg
	default:
	}
	select {
	case msg := <-t.s.chans[src][t.rank]:
		return msg
	case <-t.s.failCh:
		select {
		case msg := <-t.s.chans[src][t.rank]:
			return msg
		default:
			panic(&TransportError{Rank: t.rank, Err: t.s.failErr})
		}
	}
}

// RecvF32 receives the next float32 message from src, which must carry the
// expected tag; a tag mismatch means a protocol bug and panics.
func (t *ChanTransport) RecvF32(src, tag int) []float32 {
	msg := t.recv(src)
	if msg.tag != tag || msg.f32 == nil && len(msg.i32) > 0 {
		panic(fmt.Sprintf("comm: rank %d expected f32 tag %d from %d, got tag %d", t.rank, tag, src, msg.tag))
	}
	return msg.f32
}

// RecvI32 receives the next int32 message from src with the expected tag.
func (t *ChanTransport) RecvI32(src, tag int) []int32 {
	msg := t.recv(src)
	if msg.tag != tag || msg.i32 == nil && len(msg.f32) > 0 {
		panic(fmt.Sprintf("comm: rank %d expected i32 tag %d from %d, got tag %d", t.rank, tag, src, msg.tag))
	}
	return msg.i32
}

func (t *ChanTransport) account(bytes int) {
	t.s.bytesSent[t.rank].Add(int64(bytes))
	t.s.msgsSent[t.rank].Add(1)
}

// Barrier blocks until every rank has entered it, or panics with a
// *TransportError if the cluster is aborted while waiting (matching the TCP
// backend, whose barrier rides on fail-aware sends and receives).
func (t *ChanTransport) Barrier() {
	if t.s.barrier.wait() {
		panic(&TransportError{Rank: t.rank, Err: t.s.failErr})
	}
}

// BytesSent returns the payload bytes this rank has sent since the last
// ResetCounters.
func (t *ChanTransport) BytesSent() int64 { return t.s.bytesSent[t.rank].Load() }

// MessagesSent returns the number of messages this rank has sent.
func (t *ChanTransport) MessagesSent() int64 { return t.s.msgsSent[t.rank].Load() }

// ResetCounters zeroes this rank's byte and message counters.
func (t *ChanTransport) ResetCounters() {
	t.s.bytesSent[t.rank].Store(0)
	t.s.msgsSent[t.rank].Store(0)
}

// Abort poisons the shared fabric: every blocked and subsequent Send/Recv
// on any rank of this cluster panics with a *TransportError. (The fabric is
// shared state, so unlike the TCP backend one rank's abort fails the whole
// in-process cluster directly.)
func (t *ChanTransport) Abort() {
	t.s.fail(fmt.Errorf("transport aborted by rank %d", t.rank))
}

// Close is a no-op: channel endpoints hold no OS resources.
func (t *ChanTransport) Close() error { return nil }
