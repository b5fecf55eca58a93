package core

import "time"

// phase is what a rank's epoch time is booked to, one RankStats duration
// each.
type phase uint8

const (
	phaseSample  phase = iota // the plan: the samples, the epoch graph
	phaseCompute              // layer passes, dropout, loss
	phaseComm                 // exposed comm: payload gathers, receives, halo fills, folds
	phaseReduce               // gradient AllReduce and optimizer step
	numPhases
)

// phaseClock is one rank's epoch clock. Each stage switches it to the phase
// its work belongs to, and the time since the previous switch goes to the
// phase being left, so every instant between the first reading and the last
// is booked to exactly one phase: the phases tile the epoch.
//
// An exchange is in flight from its post to its last receive, and the
// compute booked in that window ran while its payloads travelled. The raw
// exchange span is the exposed comm plus that hidden compute: what the
// exchanges would cost if nothing hid them. A stage that receives nothing
// has nothing in flight and hides nothing.
type phaseClock struct {
	first, last time.Time
	cur         phase
	booked      [numPhases]time.Duration
	posted      time.Duration // compute booked at the last post or receive
	hidden      time.Duration // compute booked while an exchange was in flight
}

// start resets the clock and books from now on to the sample phase.
func (c *phaseClock) start() {
	now := time.Now()
	*c = phaseClock{first: now, last: now, cur: phaseSample}
}

// to books the time since the last switch to the current phase and switches
// to p; to(c.cur) only books.
func (c *phaseClock) to(p phase) {
	now := time.Now()
	c.booked[c.cur] += now.Sub(c.last)
	c.last, c.cur = now, p
}

// post switches to exposed comm for posting an exchange, which is in flight
// from here.
func (c *phaseClock) post() {
	c.to(phaseComm)
	c.posted = c.booked[phaseCompute]
}

// receive switches to exposed comm for a receive of the exchange in flight:
// the compute booked since its post or its previous receive was hidden.
func (c *phaseClock) receive() {
	c.to(phaseComm)
	c.hidden += c.booked[phaseCompute] - c.posted
	c.posted = c.booked[phaseCompute]
}

// read takes the clock's last reading and fills st's five durations from
// its books.
func (c *phaseClock) read(st *RankStats) {
	c.to(c.cur)
	st.Sample = c.booked[phaseSample]
	st.Compute = c.booked[phaseCompute]
	st.CommExposed = c.booked[phaseComm]
	st.Reduce = c.booked[phaseReduce]
	st.Comm = st.CommExposed + c.hidden
}
