package elastic

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"time"

	"repro/internal/comm"
)

// The elastic rendezvous runs comm's rendezvous rounds (comm.ServeRound,
// comm.Register) under elastic's policies. An elastic cohort can lose any
// rank, rank 0 included, and must re-rendezvous after every death, so the
// server is elected: every rank has a well-known candidate address, and a
// rank serves on its own only if no lower-ranked candidate answers. A
// server whose round times out tells its registrants to retry and goes back
// to probing, so when a lower-ranked candidate (a replacement rank 0) comes
// up late, the interim server and its registrants converge onto it instead
// of wedging in two partial rendezvous. With resizing enabled, a round may
// settle for a stable partial cohort (resizeState.settle): the smaller
// world that trains on without the dead ranks.
//
// Ranks here are SLOTS: the stable launch-time identities that name
// candidate addresses. A shrunken world's mesh runs on compact ranks 0..m-1
// in member order, while slots keep naming candidates so a replacement can
// grow the world back.
const (
	probeTimeout = 300 * time.Millisecond
	// defaultRoundTimeout and defaultStagger are the Config defaults for
	// rendezvousRound and electionStagger (see supervisor.go).
	defaultRoundTimeout = 3 * time.Second
	defaultStagger      = 300 * time.Millisecond
)

// debugf is a test hook for tracing rendezvous rounds; a no-op in production.
var debugf = func(format string, args ...any) {}

// bootConfig parameterizes one rank's rendezvous attempt.
type bootConfig struct {
	rank     int // this rank's slot
	world    int // full (launch-time) world size
	cands    []string
	dataAddr string
	myGen    int
	// rejoin marks a replacement re-admitting itself into a possibly
	// running cohort: it probes EVERY candidate (not just lower-ranked
	// ones), because the shrunken cohort's growth listener lives on the
	// lowest LIVE slot's candidate — which may be above ours.
	rejoin bool
	// stagger spaces out when ranks give up probing and start serving:
	// rank r waits r*stagger before opening its own candidate listener,
	// which keeps a transient rank-0 slowdown from electing a higher rank.
	// Zero means defaultStagger.
	stagger time.Duration
	// round is the per-round collection window; zero means
	// defaultRoundTimeout.
	round time.Duration
	// resizeAfter, when positive, lets a serving rank complete a round with
	// a PARTIAL cohort (at least two members) after that many consecutive
	// rounds timed out with the same stable roster — the permanent-loss
	// path. Zero waits for the full world forever.
	resizeAfter int
	deadline    time.Time
}

func (bc *bootConfig) norm() {
	if bc.stagger <= 0 {
		bc.stagger = defaultStagger
	}
	if bc.round <= 0 {
		bc.round = defaultRoundTimeout
	}
}

// fullMembers is the identity member set [0, world).
func fullMembers(world int) []int {
	m := make([]int, world)
	for i := range m {
		m[i] = i
	}
	return m
}

// resizeState tracks roster stability across consecutive incomplete serve
// rounds. It resets whenever we stop serving to probe — a deferral means the
// cohort is reshaping and no stability has been shown — and whenever a
// round completes, which breaks the run of timed-out ones.
type resizeState struct {
	roster []int // slots of the last incomplete round
	stable int   // consecutive incomplete rounds with that roster
}

// settle is the world-shrink election, the Round.Settle of every round this
// rank serves: a roster that has held stable through resizeAfter
// consecutive timed-out rounds IS the new world — the missing slots are
// dead, not slow. A lone rank never self-elects: a net split that isolates
// one survivor must not fork a one-rank "cohort" that trains on alone.
func (rs *resizeState) settle(bc *bootConfig, roster []int) bool {
	if bc.resizeAfter <= 0 || len(roster) < 2 {
		rs.roster, rs.stable = roster, 0
		return false
	}
	if slices.Equal(roster, rs.roster) {
		rs.stable++
	} else {
		rs.roster, rs.stable = roster, 1
	}
	debugf("rank %d: incomplete round, roster %v stable for %d/%d", bc.rank, roster, rs.stable, bc.resizeAfter)
	if rs.stable < bc.resizeAfter {
		return false
	}
	*rs = resizeState{}
	debugf("rank %d: elected shrunken world %v", bc.rank, roster)
	return true
}

// LoopbackCandidates returns the default candidate set for a single-host
// cohort: port base+r on host for rank r.
func LoopbackCandidates(host string, basePort, world int) []string {
	out := make([]string, world)
	for r := range out {
		out[r] = net.JoinHostPort(host, strconv.Itoa(basePort+r))
	}
	return out
}

// bootstrap runs the elastic rendezvous for one rank until it has a
// complete table or the deadline passes. The table's StartGen is the newest
// checkpoint generation every member can see.
func bootstrap(bc bootConfig) (*comm.Table, error) {
	bc.norm()
	if len(bc.cands) != bc.world {
		return nil, fmt.Errorf("elastic: rank %d: %d rendezvous candidates for world %d", bc.rank, len(bc.cands), bc.world)
	}
	if bc.world == 1 {
		return &comm.Table{StartGen: bc.myGen, Members: []int{0}, Addrs: []string{bc.dataAddr}}, nil
	}
	me := comm.Join{Slot: bc.rank, Addr: bc.dataAddr, Gen: bc.myGen}
	begin := time.Now()
	// ln is our candidate listener. It stays open across consecutive serve
	// rounds — closing it between rounds opens a gap that probing peers can
	// hit, and when every rank's rounds synchronize (as they do after a
	// shared ERETRY) those gaps line up into a livelock where nobody ever
	// finds anybody serving. It is closed only when we go back to probing
	// lower-ranked candidates, i.e. when we are willing to defer. Rank 0
	// never probes, so the rank-0 listener is persistent: the deterministic
	// convergence target for the whole cohort.
	var ln net.Listener
	defer func() {
		if ln != nil {
			ln.Close()
		}
	}()
	var rs resizeState
	for time.Now().Before(bc.deadline) {
		// Probe lower-ranked candidates in order: the lowest live one wins.
		// A rejoining replacement probes every candidate instead — the
		// running cohort it wants back into answers on the lowest LIVE
		// slot's candidate, which may be any of them. Stop serving first —
		// holding our listener while deferring would trap higher-ranked
		// registrants in a round we no longer intend to finish.
		probeUpTo := bc.rank
		if bc.rejoin {
			probeUpTo = bc.world
		}
		for c := 0; c < probeUpTo; c++ {
			if c == bc.rank {
				continue
			}
			if ln != nil {
				ln.Close()
				ln = nil
				rs = resizeState{}
			}
			// Stick with a live candidate across ERETRYs: the server answering
			// ERETRY is alive and will serve the next round too, so going off
			// to serve our own round instead just splits the cohort across two
			// servers — the registrants swap at synchronized round boundaries
			// and no round ever completes.
			for time.Now().Before(bc.deadline) {
				conn, err := net.DialTimeout("tcp", bc.cands[c], probeTimeout)
				if err != nil {
					break // not serving (yet)
				}
				// The server holds registrations until its round completes or
				// times out, so allow a full round plus slack before declaring
				// it wedged.
				conn.SetDeadline(time.Now().Add(bc.round + 2*time.Second))
				tbl, retry, err := comm.Register(conn, me, bc.world)
				conn.Close()
				if tbl != nil {
					return tbl, nil
				}
				if errors.Is(err, comm.ErrRejected) {
					return nil, fmt.Errorf("elastic: rank %d: rendezvous %s: %w", bc.rank, bc.cands[c], err)
				}
				if !retry {
					break // the server died or dropped us mid-round; re-probe
				}
				debugf("rank %d: cand %d is alive but round incomplete; re-registering", bc.rank, c)
			}
			debugf("rank %d: probe cand %d: no table", bc.rank, c)
		}
		// No lower candidate is serving. Serve on our own candidate once our
		// stagger has elapsed; until then, yield so a slow lower rank can win.
		if time.Since(begin) >= time.Duration(bc.rank)*bc.stagger {
			if ln == nil {
				var err error
				if ln, err = net.Listen("tcp", bc.cands[bc.rank]); err != nil {
					// Our candidate address is occupied or otherwise unusable
					// right now (a predecessor's listener in TIME_WAIT, a stale
					// process); back off and re-probe rather than giving up.
					debugf("rank %d: cannot serve on %s: %v", bc.rank, bc.cands[bc.rank], err)
					time.Sleep(probeTimeout)
					continue
				}
				rs = resizeState{}
			}
			debugf("rank %d: serving round on %s", bc.rank, bc.cands[bc.rank])
			roundDL := time.Now().Add(bc.round)
			if roundDL.After(bc.deadline) {
				roundDL = bc.deadline
			}
			tbl, err := comm.ServeRound(ln, comm.Round{
				World:    bc.world,
				Self:     me,
				Deadline: roundDL,
				Settle:   func(roster []int) bool { return rs.settle(&bc, roster) },
			})
			if tbl != nil {
				return tbl, nil
			}
			if errors.Is(err, comm.ErrRejected) {
				return nil, fmt.Errorf("elastic: rank %d: rendezvous round on %s: %w", bc.rank, bc.cands[bc.rank], err)
			}
			debugf("rank %d: round done: %v", bc.rank, err)
			if !errors.Is(err, comm.ErrIncomplete) {
				rs = resizeState{} // the round completed, but a registrant died mid-broadcast
			}
		} else {
			time.Sleep(probeTimeout / 3)
		}
	}
	if bc.resizeAfter > 0 {
		return nil, fmt.Errorf("elastic: rank %d: rendezvous incomplete after %v: no cohort of even 2 live ranks stabilized (world %d, candidates %v) — a lone survivor cannot elect a smaller world",
			bc.rank, time.Since(begin).Round(time.Millisecond), bc.world, bc.cands)
	}
	return nil, fmt.Errorf("elastic: rank %d: rendezvous incomplete after %v: no full cohort of %d ranks assembled (candidates %v)",
		bc.rank, time.Since(begin).Round(time.Millisecond), bc.world, bc.cands)
}

// indexOf returns the position of slot in members, or -1.
func indexOf(members []int, slot int) int {
	for i, m := range members {
		if m == slot {
			return i
		}
	}
	return -1
}
