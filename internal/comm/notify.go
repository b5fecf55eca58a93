package comm

import "sync"

// Completion notifications for receives — the select-any primitive
// behind the arrival-order halo drain (see Transport.IRecvF32Notify). Each
// endpoint's inbox owns one notifyReg: a ledger that matches, per (src, tag)
// stream, consumable messages against posted notification requests in FIFO
// order.
//
// The inbox stamps an arrival immediately before it enqueues a float32
// message on its stream, whichever backend pushes it (a channel-cluster
// sender or a TCP demux goroutine). Stamping strictly before enqueue means a
// notified consumer's receive can block only momentarily (until the
// in-flight enqueue lands), never spuriously.
//
// Contract: within one transport's lifetime, either every receive of a given
// (src, tag) float32 stream follows a notification posted for it, or none
// does. Mixing the two on one stream would strand arrival credits (a receive
// with no notification does not consume a stamp) and fire a later
// notification before its message exists. The training protocol obeys this
// naturally — a trainer's schedule is fixed at construction, and the
// collectives' tags never use notifications.

// streamKey identifies one directed (src, tag) message stream at an endpoint.
type streamKey struct{ src, tag int }

// notifyWaiter is one posted notification: token is sent on ch when a
// message on the stream becomes consumable.
type notifyWaiter struct {
	ch    chan<- int
	token int
}

// notifyEntry is the per-stream ledger state. Exactly one of pending/waiters
// is nonzero at any time: unmatched arrivals accumulate in pending, unmatched
// registrations queue in waiters (FIFO).
type notifyEntry struct {
	pending int
	waiters []notifyWaiter
}

// notifyReg is one endpoint's completion-notification ledger. All methods
// are safe for concurrent use; waiter channels must have spare capacity (the
// ledger sends without selecting, so an undersized channel would block the
// delivery path).
type notifyReg struct {
	mu      sync.Mutex
	m       map[streamKey]*notifyEntry
	flushed bool
	// departed marks peers that said goodbye: registrations against them
	// fire immediately (their read loop is gone, so nobody would ever wake
	// the waiter), and the matching receive reports the departure.
	departed map[int]bool
}

func (r *notifyReg) entry(k streamKey) *notifyEntry {
	if r.m == nil {
		r.m = make(map[streamKey]*notifyEntry)
	}
	e := r.m[k]
	if e == nil {
		e = &notifyEntry{}
		r.m[k] = e
	}
	return e
}

// arrived records one consumable message on (src, tag), waking the oldest
// posted notification if any is waiting. Called by the delivering side
// before the message is enqueued.
func (r *notifyReg) arrived(src, tag int) {
	r.mu.Lock()
	e := r.entry(streamKey{src, tag})
	if len(e.waiters) > 0 {
		w := e.waiters[0]
		copy(e.waiters, e.waiters[1:])
		e.waiters = e.waiters[:len(e.waiters)-1]
		r.mu.Unlock()
		w.ch <- w.token
		return
	}
	e.pending++
	r.mu.Unlock()
}

// register posts one notification for the next unclaimed message on
// (src, tag): token is sent on ch immediately if a message already arrived
// (or the transport failed — the matching receive then reports the failure),
// otherwise when one does.
func (r *notifyReg) register(src, tag int, ch chan<- int, token int) {
	r.mu.Lock()
	if r.flushed || r.departed[src] {
		r.mu.Unlock()
		ch <- token
		return
	}
	e := r.entry(streamKey{src, tag})
	if e.pending > 0 {
		e.pending--
		r.mu.Unlock()
		ch <- token
		return
	}
	e.waiters = append(e.waiters, notifyWaiter{ch: ch, token: token})
	r.mu.Unlock()
}

// flush wakes every posted notification and makes all future registrations
// fire immediately. Called when the transport fails so a drain blocked on a
// notification observes the failure through its receive instead of hanging.
func (r *notifyReg) flush() {
	r.mu.Lock()
	r.flushed = true
	var wake []notifyWaiter
	for _, e := range r.m {
		wake = append(wake, e.waiters...)
		e.waiters = e.waiters[:0]
	}
	r.mu.Unlock()
	for _, w := range wake {
		w.ch <- w.token
	}
}

// flushSrc wakes the posted notifications for one peer and makes future
// registrations against it fire immediately (graceful goodbye: no more
// messages will come from it, and the matching receives will panic with a
// descriptive error). A message the peer delivered before leaving is still
// consumed normally — its arrival credit was stamped first, and the recv
// path prefers queued messages over the departure.
func (r *notifyReg) flushSrc(src int) {
	r.mu.Lock()
	if r.departed == nil {
		r.departed = make(map[int]bool)
	}
	r.departed[src] = true
	var wake []notifyWaiter
	for k, e := range r.m {
		if k.src == src {
			wake = append(wake, e.waiters...)
			e.waiters = e.waiters[:0]
		}
	}
	r.mu.Unlock()
	for _, w := range wake {
		w.ch <- w.token
	}
}
