package comm

import (
	"fmt"
	"sync/atomic"
)

// InjectedFault is the error recorded when WithFaults kills a rank: it
// travels inside the *TransportError every participant observes, so tests
// and the elastic supervisor can tell a deliberately injected death from an
// organic failure with errors.As.
type InjectedFault struct {
	Rank    int // the rank that was killed
	Epoch   int // epoch the kill fired at (kill-at-epoch), -1 otherwise
	Message int // payload-message ordinal the kill fired at (kill-at-message), -1 otherwise
}

func (e *InjectedFault) Error() string {
	switch {
	case e.Epoch >= 0:
		return fmt.Sprintf("injected fault: rank %d killed at epoch %d", e.Rank, e.Epoch)
	case e.Message >= 0:
		return fmt.Sprintf("injected fault: rank %d killed at message %d", e.Rank, e.Message)
	}
	return fmt.Sprintf("injected fault: rank %d killed", e.Rank)
}

// FaultPlan schedules one deterministic rank death for WithFaults. Exactly
// the triggers set to a value ≥ 0 are armed; the plan fires at most once.
type FaultPlan struct {
	// Rank is the rank to kill.
	Rank int
	// AtEpoch, when ≥ 0, kills the rank when MarkEpoch(t, AtEpoch) is
	// called on its endpoint — i.e. just before it would train that epoch
	// (epochs are counted from 0, so AtEpoch=e means e epochs completed).
	AtEpoch int
	// AtMessage, when ≥ 0, kills the rank immediately before its
	// AtMessage'th payload send (0-based, counted across the whole
	// transport lifetime). Because each rank issues its protocol sends in a
	// deterministic program order, this reproducibly kills the rank at an
	// exact point inside an epoch — the case where partially exchanged halo
	// state must be thrown away on recovery.
	AtMessage int
}

// NewFaultPlan returns a disarmed plan for rank (both triggers off).
func NewFaultPlan(rank int) FaultPlan { return FaultPlan{Rank: rank, AtEpoch: -1, AtMessage: -1} }

// KillAtEpoch returns a plan killing rank when it reaches epoch e.
func KillAtEpoch(rank, e int) FaultPlan { return FaultPlan{Rank: rank, AtEpoch: e, AtMessage: -1} }

// KillAtMessage returns a plan killing rank before its n'th payload send.
func KillAtMessage(rank, n int) FaultPlan { return FaultPlan{Rank: rank, AtEpoch: -1, AtMessage: n} }

// WithFaults wraps every endpoint of a co-located group with a
// deterministic fault injector, the failure-testing sibling of
// WithLinkModel: each plan kills its rank at a precise, reproducible point
// — the start of a given epoch, or immediately before a given payload send.
// A kill emulates what a SIGKILL does to a real process: the victim's
// underlying transport is aborted (so every peer observes the death through
// the normal failure path and surfaces a *TransportError) and the victim's
// own operation panics with a *TransportError wrapping an *InjectedFault.
// Each plan fires at most once, so a recovery loop that rebuilds a fresh
// group trains on unharmed transports afterwards.
//
// Kill-at-epoch needs the driver to tell the decorator where epochs begin:
// call MarkEpoch(w.Transport(), epoch) on each rank's endpoint before
// training that epoch (the elastic supervisor does). Kill-at-message is
// self-contained. Like WithLinkModel, this is a measurement/testing
// decorator for groups whose endpoints live in one process; apply it
// outermost when stacking decorators.
func WithFaults(g *Group, plans ...FaultPlan) *Group {
	ts := make([]Transport, g.Size())
	for i := range ts {
		ft := &faultTransport{Transport: g.workers[i].t}
		for _, p := range plans {
			if p.Rank == i {
				pc := p
				ft.plans = append(ft.plans, &pc)
			}
		}
		ts[i] = ft
	}
	return NewGroup(ts)
}

// faultTransport decorates one endpoint; only sends and epoch marks are
// intercepted (receives need no counting). Every send is counted in
// ISendBufF32, the one path they all take.
type faultTransport struct {
	Transport
	plans []*FaultPlan // plans targeting this rank
	sent  atomic.Int64 // payload messages sent so far
	fired atomic.Bool
}

// kill aborts the underlying transport (peers observe the death) and
// returns the panic value for the victim's own operation.
func (t *faultTransport) kill(f *InjectedFault) *TransportError {
	t.Transport.Abort()
	return &TransportError{Rank: t.Rank(), Err: f}
}

// MarkEpoch arms the kill-at-epoch trigger; see WithFaults. It returns the
// injected fault (already propagated to every peer) instead of panicking so
// the driver can treat the rank as dead without a recover.
func (t *faultTransport) MarkEpoch(epoch int) error {
	for _, p := range t.plans {
		if p.AtEpoch >= 0 && epoch >= p.AtEpoch && t.fired.CompareAndSwap(false, true) {
			f := &InjectedFault{Rank: t.Rank(), Epoch: epoch, Message: -1}
			return t.kill(f)
		}
	}
	return nil
}

// beforeSend fires the kill-at-message trigger; the victim's send panics
// exactly like any operation on a failed transport would.
func (t *faultTransport) beforeSend() {
	n := t.sent.Add(1) - 1 // ordinal of the send about to happen
	for _, p := range t.plans {
		if p.AtMessage >= 0 && n >= int64(p.AtMessage) && t.fired.CompareAndSwap(false, true) {
			panic(t.kill(&InjectedFault{Rank: t.Rank(), Epoch: -1, Message: int(n)}))
		}
	}
}

func (t *faultTransport) ISendBufF32(dst, tag int, buf []float32) {
	t.beforeSend()
	t.Transport.ISendBufF32(dst, tag, buf)
}

// epochMarker is the optional interface MarkEpoch dispatches on.
type epochMarker interface{ MarkEpoch(epoch int) error }

// MarkEpoch tells a decorated endpoint that the caller is about to train
// the given epoch (counted from 0). On a WithFaults endpoint with a
// matching kill-at-epoch plan it fires the kill and returns the injected
// fault; on every other transport it is a no-op returning nil. Drivers that
// want to be fault-injectable (the elastic supervisor, tests) call it at
// the top of every epoch and treat a non-nil return as this rank's death.
func MarkEpoch(t Transport, epoch int) error {
	if m, ok := t.(epochMarker); ok {
		return m.MarkEpoch(epoch)
	}
	return nil
}
