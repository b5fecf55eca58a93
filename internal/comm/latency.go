package comm

import (
	"sync"
	"time"
)

// Link identifies one directed (src, dst) rank pair.
type Link struct{ Src, Dst int }

// LinkModel describes a simulated network for WithLinkModel. The delay of a
// message on link (s→d) is
//
//	base(s→d) + jitter
//
// where base is PerLink[{s,d}] when present and Latency otherwise, and
// jitter is drawn uniformly from [0, Jitter) by a deterministic per-message
// hash of (Seed, src, dst, tag, per-stream sequence number) — so two runs of
// the same protocol see identical delays and remain reproducible.
type LinkModel struct {
	// Latency is the base one-way propagation delay of every link without a
	// PerLink override.
	Latency time.Duration
	// PerLink overrides the base latency of individual directed links —
	// skewed links let a test invert the order in which peers' payloads land.
	PerLink map[Link]time.Duration
	// Jitter is the exclusive upper bound of the per-message jitter term;
	// 0 disables jitter.
	Jitter time.Duration
	// Seed seeds the deterministic jitter stream.
	Seed uint64
}

// baseOf returns the base latency of one directed link.
func (m *LinkModel) baseOf(src, dst int) time.Duration {
	if d, ok := m.PerLink[Link{Src: src, Dst: dst}]; ok {
		return d
	}
	return m.Latency
}

// delayOf computes the full modeled delay of the seq'th message on a
// directed (src, dst, tag) stream.
func (m *LinkModel) delayOf(src, dst, tag int, seq uint64) time.Duration {
	d := m.baseOf(src, dst)
	if m.Jitter > 0 {
		d += time.Duration(jitterHash(m.Seed, src, dst, tag, seq) % uint64(m.Jitter))
	}
	return d
}

// jitterHash is a splitmix64-style mix of the per-message identity, giving
// every message an independent, reproducible jitter draw.
func jitterHash(seed uint64, src, dst, tag int, seq uint64) uint64 {
	z := seed ^ uint64(src)<<48 ^ uint64(dst)<<32 ^ uint64(uint32(tag))<<16 ^ seq
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// WithLinkModel wraps every endpoint of a co-located group so each payload
// message becomes *consumable* only after the model's per-message delay,
// counted from its send. The receive path first performs the backend
// receive, then parks until sendTime+delay — so time a rank spends computing
// while a message is in flight counts against the link delay, exactly as on
// real hardware. That makes the decorator the honest way to measure
// communication/computation overlap on machines whose loopback latency is
// negligible (or where co-scheduled ranks serialize on the CPU, hiding
// nothing): the injected delay sleeps instead of burning cycles, so overlap
// can genuinely reclaim it.
//
// Payload bytes, message counts, and delivered bits are untouched — training
// over a wrapped group is bit-identical to the bare group. Control traffic
// (Barrier) is not delayed. The decorator needs a shared clock ledger
// between sender and receiver, so it applies only to groups whose endpoints
// live in one process (the channel cluster or a loopback TCP mesh); it is a
// measurement and simulation tool, not a deployment feature.
func WithLinkModel(g *Group, m LinkModel) *Group {
	s := &linkState{model: m, due: map[linkKey]*stampQueue{}}
	ts := make([]Transport, g.Size())
	for i := range ts {
		ts[i] = &latencyTransport{Transport: g.workers[i].t, s: s}
	}
	return NewGroup(ts)
}

// linkKey identifies one directed (src, dst, tag) message stream.
type linkKey struct{ src, dst, tag int }

// stamp is one in-flight message's send time and modeled delay.
type stamp struct {
	at    time.Time
	delay time.Duration
}

// stampQueue is a FIFO of in-flight stamps backed by a ring buffer, so the
// ledger's memory stays bounded by the maximum number of simultaneously
// in-flight messages per stream instead of growing by one slot per message
// forever (the bug the old pop-by-reslice ledger had). seq counts every
// message ever pushed, feeding the deterministic jitter stream.
type stampQueue struct {
	ring[stamp]
	seq uint64
}

// linkState is the shared send-stamp ledger of one wrapped group.
type linkState struct {
	model LinkModel
	mu    sync.Mutex
	due   map[linkKey]*stampQueue
}

func (s *linkState) queue(k linkKey) *stampQueue {
	q := s.due[k]
	if q == nil {
		q = &stampQueue{}
		s.due[k] = q
	}
	return q
}

// stampMsg records a message's send time and modeled delay; streams are FIFO
// per key, matching the transport ordering contract.
func (s *linkState) stampMsg(src, dst, tag int) {
	s.mu.Lock()
	q := s.queue(linkKey{src, dst, tag})
	delay := s.model.delayOf(src, dst, tag, q.seq)
	q.seq++
	q.push(stamp{at: time.Now(), delay: delay})
	s.mu.Unlock()
}

// arrive pops the oldest stamp for the key and parks until the message is
// due. The pop happens after the backend receive completed, so the stamp is
// guaranteed to be there (stamping happens before the backend send, which
// happens before delivery).
func (s *linkState) arrive(src, dst, tag int) {
	s.mu.Lock()
	st, ok := s.queue(linkKey{src, dst, tag}).pop()
	s.mu.Unlock()
	if ok {
		if wait := time.Until(st.at.Add(st.delay)); wait > 0 {
			time.Sleep(wait)
		}
	}
}

// latencyTransport decorates one endpoint; everything not overridden
// (Barrier, counters, Abort, Close, SendBufF32, RecycleF32) passes through.
// Every send is stamped in ISendBufF32, the one path they all take.
type latencyTransport struct {
	Transport
	s *linkState
}

func (t *latencyTransport) ISendBufF32(dst, tag int, buf []float32) {
	t.s.stampMsg(t.Rank(), dst, tag)
	t.Transport.ISendBufF32(dst, tag, buf)
}

func (t *latencyTransport) RecvF32(src, tag int) []float32 {
	out := t.Transport.RecvF32(src, tag)
	t.s.arrive(src, t.Rank(), tag)
	return out
}
