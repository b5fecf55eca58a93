package comm

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Workspace-style free lists for the transports' steady-state buffers (see
// tensor.Workspace for the pattern): buckets by power-of-two capacity, so the
// repeating payload sizes of a training epoch hit the free list every time
// after one warm-up epoch. A float32 payload is staged once per side, in a
// buffer the transport lends and takes back. Two pools exist per TCP
// transport:
//
//   - wireBufs ([]byte): outgoing frames. SendBufF32 lends the payload region
//     of one as a float32 view (ISendBufF32 writes the header in front of
//     it); a control frame is serialized into one. The per-peer writer
//     goroutine returns it after the socket write.
//   - recvBufs ([]byte): incoming frame payloads, drawn by the demux
//     goroutines in readLoop. RecvF32 lends a float32 frame's to the consumer
//     as a float32 view, which RecycleF32 returns; the demux returns a
//     control frame's itself once it has read the frame's tag.
//
// The channel cluster has one bufPool[float32] for all its ranks: SendBufF32
// draws from it, and the receiver's RecycleF32 refills it.
//
// Unlike tensor.Workspace these pools are mutex-guarded: the demux and writer
// goroutines of every peer and the rank goroutines share them. Buffers lost at
// teardown (frames never consumed after a failure) and payloads nobody
// recycles are simply garbage collected.
//
// How many buffers of one size are out at once is not the protocol's to say:
// it is one or two per peer, and now and then three, by how far the writer
// and demux goroutines run ahead of the rank's. A free list that grew one
// buffer per miss would therefore still allocate in whichever late epoch
// first has one more frame in flight than any before it. So a miss on a small
// size class (buffers up to spareMaxBytes) pre-sizes the class instead: it
// makes minSmallBufs buffers the first time and doubles the class after
// that, which the first epoch's traffic settles for good. Larger classes —
// the halo payloads of a big partition, where four spares would cost
// megabytes of resident memory per peer — keep growing one buffer per miss.
//
// Where a payload's size follows an epoch's sample, one message moves from
// class to class between epochs, and a late epoch can put one more of them
// in a class than any epoch before — most of all in the channel cluster's
// pool, which every rank's payloads share. So before it allocates, a get
// borrows the smallest idle buffer of any larger class for as long as the
// payload lives; put files a buffer by its capacity, so the loan goes back
// where it came from.
const (
	spareMaxBytes = 64 << 10
	minSmallBufs  = 4
)

// poolGetClass returns the bucket whose buffers have capacity 1<<c ≥ n.
func poolGetClass(n int) int {
	if n <= 0 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// poolPutClass returns the bucket a buffer of the given capacity may serve:
// the largest c with 1<<c <= capacity. Returns -1 for capacity 0.
func poolPutClass(capacity int) int {
	return bits.Len(uint(capacity)) - 1
}

// bufPool is a bucketed free list of element buffers.
type bufPool[E any] struct {
	mu   sync.Mutex
	free [33][][]E
	made [33]int // buffers of each class allocated so far
}

// get returns a length-n buffer with undefined contents.
func (p *bufPool[E]) get(n int) []E {
	c := poolGetClass(n)
	p.mu.Lock()
	for cc := c; cc < len(p.free); cc++ {
		if bucket := p.free[cc]; len(bucket) > 0 {
			buf := bucket[len(bucket)-1]
			p.free[cc] = bucket[:len(bucket)-1]
			p.mu.Unlock()
			return buf[:n]
		}
	}
	// A miss: one buffer for the caller, and for a small class the spares
	// that bring it to minSmallBufs or twice its size.
	spares := 0
	if (1<<c)*int(unsafe.Sizeof(*new(E))) <= spareMaxBytes {
		spares = max(minSmallBufs, 2*p.made[c]) - p.made[c] - 1
	}
	p.made[c] += 1 + spares
	for ; spares > 0; spares-- {
		p.free[c] = append(p.free[c], make([]E, 1<<c))
	}
	p.mu.Unlock()
	return make([]E, n, 1<<c)
}

// put returns buf to the free lists; the caller must not use it afterwards.
func (p *bufPool[E]) put(buf []E) {
	c := poolPutClass(cap(buf))
	if c < 0 {
		return
	}
	p.mu.Lock()
	p.free[c] = append(p.free[c], buf[:cap(buf)])
	p.mu.Unlock()
}
