package elastic

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// The elastic rendezvous. Classic DialTCP bootstrap assumes rank 0 is
// alive and serves exactly once; an elastic cohort can lose any rank —
// including rank 0 — and must re-rendezvous after every death. The protocol
// here adds three things on top: a deterministic successor election (every
// rank has a well-known candidate address; a rank serves on its own
// candidate only if no lower-ranked candidate answers, so the
// lowest-ranked live rank always ends up serving), a generation consensus
// (each registrant reports the newest checkpoint generation it holds; the
// server answers with the minimum, which is the newest state EVERY rank can
// actually load), and — when resizing is enabled — a world-shrink election:
// a server whose rounds keep timing out with the same stable partial cohort
// eventually completes the round with just those members, electing the
// smaller world that trains on without the dead ranks.
//
// Wire protocol, one line each way:
//
//	client → server: "EJOIN <slot> <dataAddr> <latestGen>\n"
//	server → client: "ETAB <startGen> <m> <slot0> <addr0> ... <slot_{m-1}> <addr_{m-1}>\n"
//	                 "ERETRY\n"  (round timed out incomplete; re-probe)
//	                 "EERR <reason>\n"  (misconfigured client; give up)
//
// Ranks in this protocol are SLOTS: the stable launch-time identities that
// name candidate addresses and checkpoint shards. The ETAB member list maps
// slots to data addresses; a shrunken world's mesh then runs on compact
// ranks 0..m-1 in member order, while slots keep naming files and
// candidates so a replacement can grow the world back.
//
// A server whose round times out before the cohort completes tells its
// registrants to retry and goes back to probing — so when a lower-ranked
// candidate (a replacement rank 0) comes up late, the interim server and
// its registrants all converge onto it instead of wedging in two partial
// rendezvous.
const (
	probeTimeout = 300 * time.Millisecond
	// defaultRoundTimeout and defaultStagger are the Config defaults for
	// RendezvousRound and ElectionStagger (see supervisor.go).
	defaultRoundTimeout = 3 * time.Second
	defaultStagger      = 300 * time.Millisecond
)

// debugf is a test hook for tracing rendezvous rounds; a no-op in production.
var debugf = func(format string, args ...any) {}

// table is what a completed rendezvous agrees on.
type table struct {
	startGen int      // newest checkpoint generation every member holds
	members  []int    // sorted live slots; the full world when nothing shrank
	addrs    []string // data listener address per member, in member order
}

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
// rounds. It lives in bootstrap (not serveRound) so the count survives
// round boundaries, and resets whenever we stop serving to probe — a
// deferral means the cohort is reshaping and no stability has been shown.
type resizeState struct {
	roster string // canonical slot list of the last incomplete round
	stable int    // consecutive incomplete rounds with that roster
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
// complete table or the deadline passes.
func bootstrap(bc bootConfig) (*table, error) {
	bc.norm()
	if len(bc.cands) != bc.world {
		return nil, fmt.Errorf("elastic: rank %d: %d rendezvous candidates for world %d", bc.rank, len(bc.cands), bc.world)
	}
	if bc.world == 1 {
		return &table{startGen: bc.myGen, members: []int{0}, addrs: []string{bc.dataAddr}}, nil
	}
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
				tbl, alive, err := register(&bc, bc.cands[c])
				if tbl != nil {
					return tbl, nil
				}
				if err != nil {
					return nil, err // EERR: misconfiguration, retrying won't help
				}
				if !alive {
					break
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
			tbl := serveRound(ln, &bc, &rs, bc.deadline)
			debugf("rank %d: round done tbl=%v", bc.rank, tbl != nil)
			if tbl != nil {
				return tbl, nil
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

// register dials a candidate and tries to join its round. Returns a table
// on success. alive reports whether a live server answered ERETRY (the
// caller should re-register with it rather than serve its own round); it is
// false when the candidate is unreachable or died mid-round. A non-nil
// error is a permanent EERR rejection — retrying won't help.
func register(bc *bootConfig, cand string) (tbl *table, alive bool, err error) {
	conn, err := net.DialTimeout("tcp", cand, probeTimeout)
	if err != nil {
		return nil, false, nil // not serving (yet) — caller moves on
	}
	defer conn.Close()
	// The server holds registrations until its round completes or times
	// out, so allow a full round plus slack before declaring it wedged.
	conn.SetDeadline(time.Now().Add(bc.round + 2*time.Second))
	if _, err := fmt.Fprintf(conn, "EJOIN %d %s %d\n", bc.rank, bc.dataAddr, bc.myGen); err != nil {
		return nil, false, nil
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return nil, false, nil // server died or timed us out mid-round; re-probe
	}
	line = strings.TrimSpace(line)
	switch {
	case line == "ERETRY":
		return nil, true, nil
	case strings.HasPrefix(line, "EERR "):
		return nil, false, fmt.Errorf("elastic: rank %d: rendezvous %s rejected registration: %s", bc.rank, cand, line[len("EERR "):])
	}
	tbl, err = parseTable(line, bc.world)
	if err != nil {
		return nil, false, fmt.Errorf("elastic: rank %d: %v", bc.rank, err)
	}
	if indexOf(tbl.members, bc.rank) < 0 {
		// Cannot happen with a well-behaved server (we registered in this
		// round), but a table that excludes us is unusable — fail loudly
		// rather than dial a mesh we have no seat in.
		return nil, false, fmt.Errorf("elastic: rank %d: rendezvous table %v excludes this rank", bc.rank, tbl.members)
	}
	return tbl, true, nil
}

// parseTable decodes an ETAB line into a table.
func parseTable(line string, world int) (*table, error) {
	fields := strings.Fields(line)
	if len(fields) < 3 || fields[0] != "ETAB" {
		return nil, fmt.Errorf("malformed rendezvous table %q", line)
	}
	start, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("malformed start generation in %q", line)
	}
	m, err := strconv.Atoi(fields[2])
	if err != nil || m < 1 || m > world || len(fields) != 3+2*m {
		return nil, fmt.Errorf("malformed member list in %q", line)
	}
	tbl := &table{startGen: start, members: make([]int, m), addrs: make([]string, m)}
	for i := 0; i < m; i++ {
		slot, err := strconv.Atoi(fields[3+2*i])
		if err != nil || slot < 0 || slot >= world {
			return nil, fmt.Errorf("malformed member slot in %q", line)
		}
		if i > 0 && tbl.members[i-1] >= slot {
			return nil, fmt.Errorf("member slots not ascending in %q", line)
		}
		tbl.members[i] = slot
		tbl.addrs[i] = fields[4+2*i]
	}
	return tbl, nil
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

// serveRound serves one rendezvous round on the caller's candidate
// listener: collect a registration from every other rank, agree on
// min(gen), broadcast the table. If the round times out incomplete,
// registrants get ERETRY and the caller decides whether to probe or serve
// another round; the listener stays open either way (see bootstrap). When
// resizing is enabled and the same partial roster (≥2 members) has timed
// out resizeAfter consecutive rounds, the round completes with just those
// members — the survivors elect the smaller world. Returns nil for a round
// that did not complete.
func serveRound(ln net.Listener, bc *bootConfig, rs *resizeState, overall time.Time) *table {
	roundDL := time.Now().Add(bc.round)
	if roundDL.After(overall) {
		roundDL = overall
	}
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(roundDL)
	}
	addrs := make([]string, bc.world)
	gens := make([]int, bc.world)
	conns := make([]net.Conn, bc.world)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	addrs[bc.rank], gens[bc.rank] = bc.dataAddr, bc.myGen
	have := 1
	for have < bc.world {
		conn, err := ln.Accept()
		if err != nil {
			// Round timed out incomplete. With resizing enabled, a roster
			// that has held stable through enough consecutive rounds IS the
			// new world: the missing slots are dead, not slow. A lone rank
			// never self-elects — a net split that isolates one survivor
			// must not fork a one-rank "cohort" that trains on alone.
			roster := rosterKey(bc.rank, conns)
			if bc.resizeAfter > 0 && have >= 2 {
				if roster == rs.roster {
					rs.stable++
				} else {
					rs.roster, rs.stable = roster, 1
				}
				debugf("rank %d: incomplete round, roster %s stable for %d/%d", bc.rank, roster, rs.stable, bc.resizeAfter)
				if rs.stable >= bc.resizeAfter {
					rs.roster, rs.stable = "", 0
					return finishRound(bc, conns, addrs, gens)
				}
			} else {
				rs.roster, rs.stable = roster, 0
			}
			for _, c := range conns {
				if c != nil {
					fmt.Fprint(c, "ERETRY\n")
				}
			}
			return nil
		}
		conn.SetDeadline(roundDL.Add(time.Second))
		var r, gen int
		var addr string
		if _, err := fmt.Fscanf(bufio.NewReader(conn), "EJOIN %d %s %d\n", &r, &addr, &gen); err != nil {
			fmt.Fprintf(conn, "EERR malformed elastic hello: %v\n", err)
			conn.Close()
			continue
		}
		if r < 0 || r >= bc.world {
			fmt.Fprintf(conn, "EERR rank %d outside [0,%d) — check -rank/-world against the cohort\n", r, bc.world)
			conn.Close()
			continue
		}
		if r == bc.rank {
			fmt.Fprintf(conn, "EERR rank %d is already serving this rendezvous — two processes claim the same rank\n", r)
			conn.Close()
			continue
		}
		if conns[r] != nil {
			// Latest registration wins: the old connection belongs to a
			// client that gave up, died, or redialed across generations.
			conns[r].Close()
			have--
		}
		conns[r], addrs[r], gens[r] = conn, addr, gen
		have++
	}
	rs.roster, rs.stable = "", 0
	return finishRound(bc, conns, addrs, gens)
}

// rosterKey canonicalizes the current registrant set (plus the server
// itself) for stability comparison across rounds.
func rosterKey(rank int, conns []net.Conn) string {
	var b strings.Builder
	for r := range conns {
		if r == rank || conns[r] != nil {
			fmt.Fprintf(&b, "%d,", r)
		}
	}
	return b.String()
}

// finishRound computes the member table from whoever is registered (the
// full world on the normal path, the stable survivors on the resize path),
// broadcasts it, and returns it. Returns nil if a registrant died
// mid-broadcast — the cohort has changed and the round must rerun.
func finishRound(bc *bootConfig, conns []net.Conn, addrs []string, gens []int) *table {
	var members []int
	for r := 0; r < bc.world; r++ {
		if r == bc.rank || conns[r] != nil {
			members = append(members, r)
		}
	}
	start := gens[members[0]]
	for _, m := range members[1:] {
		if gens[m] < start {
			start = gens[m]
		}
	}
	maddrs := make([]string, len(members))
	parts := make([]string, 0, 3+2*len(members))
	parts = append(parts, "ETAB", strconv.Itoa(start), strconv.Itoa(len(members)))
	for i, m := range members {
		maddrs[i] = addrs[m]
		parts = append(parts, strconv.Itoa(m), addrs[m])
	}
	line := strings.Join(parts, " ") + "\n"
	for _, c := range conns {
		if c == nil {
			continue
		}
		if _, err := c.Write([]byte(line)); err != nil {
			return nil // a registrant died mid-broadcast; rerun the round
		}
	}
	if len(members) < bc.world {
		debugf("rank %d: elected shrunken world %v at gen %d", bc.rank, members, start)
	}
	return &table{startGen: start, members: members, addrs: maddrs}
}
