package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// A tag lies in [0, 2³¹) on every platform: a frame carries it in 32 bits
// and a 32-bit int holds no more. The top half, [2³⁰, 2³¹), is reserved for
// transport-internal control messages; application tags must stay below
// tagReservedBase, and the training protocol's tags are all small integers.
const (
	tagReservedBase = 1 << 30
	tagBarrierEnter = tagReservedBase + 0
	tagBarrierLeave = tagReservedBase + 1
	tagBye          = tagReservedBase + 2
	tagHeartbeat    = tagReservedBase + 3
)

// TransportError is the panic value a transport's operations raise once it
// has failed (a peer died, a connection broke, or Abort was called).
// RankTrainer.TrainEpoch converts it into an ordinary error at the epoch
// boundary.
type TransportError struct {
	Rank int
	Err  error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("comm: rank %d: %v", e.Rank, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// failure records the first error that brings a transport down; ch closes
// when it is set, waking everything blocked on the transport. A channel
// cluster shares one among all its ranks, a TCP endpoint has its own.
type failure struct {
	err  error // written once before ch closes
	once sync.Once
	ch   chan struct{}
}

func newFailure() *failure { return &failure{ch: make(chan struct{})} }

// set records err unless a failure was recorded before, and reports whether
// this call was the first.
func (f *failure) set(err error) (first bool) {
	f.once.Do(func() {
		f.err = err
		close(f.ch)
		first = true
	})
	return first
}

// ring is a FIFO over a circular buffer that doubles only when full, so its
// memory stays bounded by the most elements ever queued at once rather than
// by a capacity reserved up front or by how many ever passed through.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

func (q *ring[T]) pop() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v, true
}

// streamKey identifies one directed (src, tag) message stream at an endpoint.
type streamKey struct{ src, tag int }

// stream is one (src, tag) FIFO of an inbox's payloads, guarded by the
// inbox's mutex.
// ready and room each hold at most one wakeup token: a push leaves one in
// ready, a pop one in room, and whoever is blocked on the stream takes it
// and re-checks. A taker that leaves work behind (messages, or room) passes
// the token on, so several parties on one stream never strand each other.
type stream struct {
	ring[[]float32]
	ready chan struct{}
	room  chan struct{}
}

func wake(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// inbox is what both backends share of one endpoint: its receive side, its
// barrier and its payload counters. The receive side is a bounded FIFO per
// (src, tag) stream of float32 payloads, and the wakeups a blocked receive
// needs when the transport fails or a peer leaves. A ChanTransport sender
// pushes straight into the destination's inbox; a TCP demux goroutine pushes
// each frame it has checked. A control message is a nil payload on its
// reserved tag, which ctrl — the one part a backend supplies — delivers to a
// peer's inbox. Its exported methods are the backends' Rank, Size, RecvF32,
// Barrier, BytesSent and MessagesSent.
type inbox struct {
	rank     int
	queueCap int
	failed   *failure
	// gone[src] closes once src has said goodbye: every message it sent is
	// already pushed, and no more will come. Only the TCP backend's peers
	// leave.
	gone []chan struct{}
	ctrl func(dst, tag int)

	bytesSent atomic.Int64
	msgsSent  atomic.Int64

	mu      sync.Mutex
	streams map[streamKey]*stream
}

func newInbox(rank, world, queueCap int, f *failure, ctrl func(dst, tag int)) *inbox {
	in := &inbox{
		rank:     rank,
		queueCap: queueCap,
		failed:   f,
		gone:     make([]chan struct{}, world),
		ctrl:     ctrl,
		streams:  make(map[streamKey]*stream),
	}
	for src := range in.gone {
		in.gone[src] = make(chan struct{})
	}
	return in
}

// Rank returns this endpoint's id in [0, Size).
func (in *inbox) Rank() int { return in.rank }

// Size returns the number of ranks.
func (in *inbox) Size() int { return len(in.gone) }

// failure returns the panic value for the recorded transport failure.
func (in *inbox) failure() *TransportError {
	return &TransportError{Rank: in.rank, Err: in.failed.err}
}

// stream returns the (src, tag) stream, creating it on first use.
func (in *inbox) stream(src, tag int) *stream {
	if src < 0 || src >= in.Size() || src == in.rank {
		panic(fmt.Sprintf("comm: rank %d: no peer %d", in.rank, src))
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.streams[streamKey{src, tag}]
	if s == nil {
		s = &stream{ready: make(chan struct{}, 1), room: make(chan struct{}, 1)}
		in.streams[streamKey{src, tag}] = s
	}
	return s
}

// push appends data to the (src, tag) stream. A full stream blocks the caller
// — backpressure, never a drop — until the receiver drains it; push returns
// false instead if the transport fails or stop closes first.
func (in *inbox) push(src, tag int, data []float32, stop <-chan struct{}) bool {
	s := in.stream(src, tag)
	in.mu.Lock()
	for s.n == in.queueCap {
		in.mu.Unlock()
		select {
		case <-s.room:
		case <-in.failed.ch:
			return false
		case <-stop:
			return false
		}
		in.mu.Lock()
	}
	s.push(data)
	if s.n < in.queueCap {
		wake(s.room)
	}
	in.mu.Unlock()
	wake(s.ready)
	return true
}

// depart marks src as gone (a graceful goodbye): receives from it that find
// their stream empty panic with a pointed error.
func (in *inbox) depart(src int) { close(in.gone[src]) }

// recv dequeues the next message of the (src, tag) stream, blocking until one
// arrives. It prefers a queued message over a failure or a departure, so data
// that arrived is never lost; with none queued those panic with a
// *TransportError instead of deadlocking.
func (in *inbox) recv(src, tag int) []float32 {
	s := in.stream(src, tag)
	in.mu.Lock()
	for s.n == 0 {
		in.mu.Unlock()
		var err *TransportError
		select {
		case <-s.ready:
		case <-in.failed.ch:
			err = in.failure()
		case <-in.gone[src]:
			err = &TransportError{Rank: in.rank, Err: fmt.Errorf(
				"peer %d closed its transport while rank %d still expected tag %d", src, in.rank, tag)}
		}
		in.mu.Lock()
		if err != nil && s.n == 0 {
			in.mu.Unlock()
			panic(err)
		}
	}
	data, _ := s.pop()
	if s.n > 0 {
		wake(s.ready)
	}
	in.mu.Unlock()
	wake(s.room)
	return data
}

// RecvF32 receives the next float32 message from src with the given tag. The
// payload is lent: on TCP a view of the frame it arrived in, on the channel
// backend the buffer the sender filled. Hand it back with RecycleF32 once
// consumed to keep steady-state epochs allocation-free.
func (in *inbox) RecvF32(src, tag int) []float32 {
	checkAppTag(tag)
	return in.recv(src, tag)
}

// Barrier blocks until every rank has entered it. Each rank other than 0
// sends rank 0 an enter message and waits for its leave message; rank 0
// takes every enter before it sends any leave. The messages are control
// messages, so a barrier moves no payload bytes and counts no message. A
// failed transport wakes the blocked receive, which panics with a
// *TransportError.
func (in *inbox) Barrier() {
	if in.rank != 0 {
		in.ctrl(0, tagBarrierEnter)
		in.recv(0, tagBarrierLeave)
		return
	}
	for r := 1; r < in.Size(); r++ {
		in.recv(r, tagBarrierEnter)
	}
	for r := 1; r < in.Size(); r++ {
		in.ctrl(r, tagBarrierLeave)
	}
}

// sent counts one payload message of n float32s; control messages are
// never counted.
func (in *inbox) sent(n int) {
	in.bytesSent.Add(int64(4 * n))
	in.msgsSent.Add(1)
}

// BytesSent returns the payload bytes this rank has sent: 4 per element,
// with no frame headers or control messages, so the figure is the same on
// every backend and feeds the cost model unchanged.
func (in *inbox) BytesSent() int64 { return in.bytesSent.Load() }

// MessagesSent returns the number of payload messages this rank has sent.
func (in *inbox) MessagesSent() int64 { return in.msgsSent.Load() }

func checkAppTag(tag int) {
	if tag < 0 || tag >= tagReservedBase {
		panic(fmt.Sprintf("comm: application tag %d outside [0,%d)", tag, tagReservedBase))
	}
}
