// Package comm provides the message-passing substrate that stands in for
// Gloo/NCCL in the paper's setup: tagged point-to-point sends and receives,
// AllReduce, variable AllGather, barriers, and per-rank byte accounting. The
// byte counters are exact: the halo and reduce bytes every epoch reports
// come from them.
//
// Backends are pluggable behind the Transport interface. The in-process
// backend (one goroutine per partition over Go channels, created by New)
// remains the fast default; the TCP backend (one OS process per rank, created
// by DialTCP) runs the same protocol across real sockets and is proven
// bit-identical to the channel backend by the cross-backend tests in
// internal/core.
//
// The two backends differ only in how a message travels. A send is complete
// once its message is queued — in the destination's inbox on the channel
// backend, for the peer's writer goroutine on TCP — so nothing ever waits
// on one. Both receive through the same inbox: one bounded FIFO per
// (src, tag) stream, which a channel-cluster sender pushes into directly
// and a TCP demux goroutine fills from the socket. A receive names its
// stream: there is no receive-any, and a caller waiting on several peers
// takes them in an order it chooses (the training engine: ascending rank).
// On both, a float32 payload is staged once per side: the sender gathers it
// into a buffer the transport lends (SendBufF32), and the receiver reads it
// where it landed until RecycleF32 takes it back — on the channel backend
// the two are the same buffer, on TCP the outgoing and the incoming frame.
package comm

import (
	"fmt"
	"sync/atomic"
)

// chanState is the shared fabric of one in-process cluster: every rank's
// inbox, the barrier, the per-rank counters, the payload pool and the one
// failure all ranks share.
type chanState struct {
	in        []*inbox // per destination rank
	barrier   *reusableBarrier
	bytesSent []atomic.Int64 // per source rank
	msgsSent  []atomic.Int64
	bufs      bufPool[float32] // lent payload buffers, refilled by RecycleF32
	failed    *failure
}

// fail records the first failure and wakes every blocked send, receive and
// barrier on the shared fabric.
func (s *chanState) fail(err error) {
	if s.failed.set(err) {
		s.barrier.abort()
	}
}

// New creates an in-process group of m workers connected all-to-all, each
// sending straight into the others' inboxes: a Group over ChanTransports.
//
// queueCap bounds the number of queued messages per directed (src, tag)
// stream; 0 selects the default of 256. The bound matters because a send to
// a full stream blocks until the receiver drains it — messages are never
// dropped — so queueCap only has to cover the most messages one rank can
// have queued on a single stream toward a peer. For the training protocol a
// halo or position stream carries one message per epoch, and each of the
// ring AllReduce's two tags carries m−1 messages per collective toward the
// ring successor; since the ring lets no rank run more than two collectives
// ahead of its successor, at most two epochs' worth can ever be queued, so
// capacity ≥ 2(m−1) guarantees senders never stall. The default 256 covers
// every paper configuration (m ≤ 32 needs ≤ 62); larger setups still run
// correctly, senders just block for backpressure.
func New(m int, queueCap int) *Group {
	if m <= 0 {
		panic(fmt.Sprintf("comm: cluster size %d", m))
	}
	if queueCap <= 0 {
		queueCap = defaultQueueCap
	}
	s := &chanState{
		in:        make([]*inbox, m),
		barrier:   newBarrier(m),
		bytesSent: make([]atomic.Int64, m),
		msgsSent:  make([]atomic.Int64, m),
		failed:    newFailure(),
	}
	ts := make([]Transport, m)
	for r := 0; r < m; r++ {
		s.in[r] = newInbox(r, m, queueCap, s.failed)
		ts[r] = &ChanTransport{inbox: s.in[r], s: s}
	}
	return NewGroup(ts)
}

// defaultQueueCap is the per-stream queue depth both backends use when the
// caller passes 0; see New for the derivation of the bound.
const defaultQueueCap = 256

// ChanTransport is one rank's endpoint on the in-process channel backend.
// Its receive side is its inbox, into which the other ranks' sends push
// directly. A float32 payload travels in a buffer lent from the cluster's
// pool: the sender gathers into it, the message carries it by reference,
// and the receiver's RecycleF32 returns it to the pool.
type ChanTransport struct {
	*inbox
	s *chanState
}

// send pushes one message into dst's inbox, blocking for backpressure but
// waking with a panic if the cluster is aborted while blocked. The send is
// complete once it returns.
func (t *ChanTransport) send(dst, tag, bytes int, msg message) {
	t.s.bytesSent[t.rank].Add(int64(bytes))
	t.s.msgsSent[t.rank].Add(1)
	if !t.s.in[dst].push(t.rank, tag, msg, nil) {
		panic(t.failure())
	}
}

// SendI32 sends an int32 payload to dst with a tag.
func (t *ChanTransport) SendI32(dst, tag int, data []int32) {
	t.send(dst, tag, 4*len(data), message{dtype: dtypeI32, i32: data})
}

// SendBufF32 lends the caller an n-element buffer from the cluster's pool.
func (t *ChanTransport) SendBufF32(n int) []float32 { return t.s.bufs.get(n) }

// ISendBufF32 puts a lent buffer on the fabric by reference: it lands in
// dst's inbox as it stands, so there is nothing left to complete.
func (t *ChanTransport) ISendBufF32(dst, tag int, buf []float32) {
	t.send(dst, tag, 4*len(buf), message{dtype: dtypeF32, f32: buf})
}

// RecycleF32 returns a received payload's buffer to the cluster's pool.
func (t *ChanTransport) RecycleF32(data []float32) { t.s.bufs.put(data) }

// Barrier blocks until every rank has entered it, or panics with a
// *TransportError if the cluster is aborted while waiting (matching the TCP
// backend, whose barrier rides on fail-aware sends and receives).
func (t *ChanTransport) Barrier() {
	if t.s.barrier.wait() {
		panic(t.failure())
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
