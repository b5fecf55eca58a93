package comm

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The rendezvous is how the ranks of a TCP mesh learn each other's data
// addresses, one line each way:
//
//	client → server: "EJOIN <slot> <dataAddr> <latestGen>\n"
//	server → client: "ETAB <startGen> <m> <slot0> <addr0> ... <slot_{m-1}> <addr_{m-1}>\n"
//	                 "ERETRY\n"         (the round ended incomplete; register again)
//	                 "EERR <reason>\n"  (the registration is refused; retrying won't help)
//
// A slot is a rank's launch-time identity. A round's server collects a join
// from every other slot and broadcasts the members in ascending slot order
// with their data addresses, and startGen, the smallest generation any
// member reported: the newest state every member holds. A scan may lag the
// writer by one generation; members further apart do not share a checkpoint
// directory, and their round is refused. DialTCP serves one round on rank 0;
// internal/elastic elects its server and may settle a timed-out round for a
// partial roster.

// joinTimeout bounds how long a server waits for one connection's join
// line: a connection that sends none in that time is refused and dropped,
// so a dialer that stays silent costs a round this long, not the round.
const joinTimeout = 300 * time.Millisecond

// Join is one registration: the slot a rank claims, the data listener
// address it advertises, and the newest checkpoint generation it holds.
type Join struct {
	Slot int
	Addr string
	Gen  int
}

// Table is what a completed round agrees on.
type Table struct {
	StartGen int      // the smallest Gen any member reported
	Members  []int    // ascending slots: the whole world unless a round settled short
	Addrs    []string // each member's data address, in member order
}

func (t *Table) line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ETAB %d %d", t.StartGen, len(t.Members))
	for i, m := range t.Members {
		fmt.Fprintf(&b, " %d %s", m, t.Addrs[i])
	}
	b.WriteByte('\n')
	return b.String()
}

// ReadJoin reads one join line from conn for a round of world slots served
// by slot self. A line that is late, malformed, outside [0, world) or
// claims self is answered EERR and returned as an error.
func ReadJoin(conn net.Conn, world, self int) (Join, error) {
	conn.SetReadDeadline(time.Now().Add(joinTimeout))
	j, err := readJoin(bufio.NewReader(conn), world, self)
	if err != nil {
		Refuse(conn, err.Error())
	}
	return j, err
}

// readJoin reads and checks one join line from br; a line that does not end
// within br's buffer is refused.
func readJoin(br *bufio.Reader, world, self int) (Join, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return Join{}, fmt.Errorf("no join line: %v", err)
	}
	f := strings.Fields(string(line))
	if len(f) != 4 || f[0] != "EJOIN" {
		return Join{}, fmt.Errorf("malformed join line %q", line)
	}
	slot, errSlot := strconv.Atoi(f[1])
	gen, errGen := strconv.Atoi(f[3])
	switch {
	case errSlot != nil || errGen != nil:
		return Join{}, fmt.Errorf("malformed join line %q", line)
	case slot < 0 || slot >= world:
		return Join{}, fmt.Errorf("rank %d outside [0,%d) — check -rank/-world against the cohort", slot, world)
	case slot == self:
		return Join{}, fmt.Errorf("rank %d is already serving this rendezvous — two processes claim the same rank", slot)
	}
	return Join{Slot: slot, Addr: f[2], Gen: gen}, nil
}

// parseTable decodes a table line for a world of the given size.
func parseTable(line string, world int) (*Table, error) {
	f := strings.Fields(line)
	if len(f) < 3 || f[0] != "ETAB" {
		return nil, fmt.Errorf("malformed rendezvous table %q", line)
	}
	start, errStart := strconv.Atoi(f[1])
	m, errM := strconv.Atoi(f[2])
	if errStart != nil || errM != nil || m < 1 || m > world || len(f) != 3+2*m {
		return nil, fmt.Errorf("malformed rendezvous table %q", line)
	}
	t := &Table{StartGen: start, Members: make([]int, m), Addrs: make([]string, m)}
	for i := range m {
		slot, err := strconv.Atoi(f[3+2*i])
		if err != nil || slot < 0 || slot >= world || i > 0 && slot <= t.Members[i-1] {
			return nil, fmt.Errorf("member slots not ascending in [0,%d) in %q", world, line)
		}
		t.Members[i], t.Addrs[i] = slot, f[4+2*i]
	}
	return t, nil
}

// Refuse answers a registrant EERR. Like Retry it is best-effort: a
// registrant that cannot take the answer is gone.
func Refuse(conn net.Conn, reason string) { answer(conn, "EERR "+reason+"\n") }

// Retry answers a registrant ERETRY: the round ended incomplete.
func Retry(conn net.Conn) { answer(conn, "ERETRY\n") }

// answer writes one line to a registrant, which is waiting for it.
func answer(conn net.Conn, line string) error {
	conn.SetWriteDeadline(time.Now().Add(joinTimeout))
	_, err := io.WriteString(conn, line)
	return err
}

// Round is one rendezvous round a server runs.
type Round struct {
	World    int
	Self     Join      // the server's own registration
	Deadline time.Time // when the round stops accepting
	// Settle, if non-nil, is asked when the round stops short of the world,
	// with the registered slots ascending: true completes it with them.
	Settle func(roster []int) bool
}

var (
	// ErrIncomplete marks a round that stopped short and was not settled.
	ErrIncomplete = errors.New("rendezvous incomplete")
	// ErrRejected marks a registration that repeating won't help: an EERR
	// answer, or a table that is malformed or leaves the registrant out.
	ErrRejected = errors.New("rejected registration")
)

// ServeRound serves one round on ln until every slot has registered or
// r.Deadline passes, and broadcasts the table; a slot's newest registration
// replaces an older one. A round that stops short and is not settled tells
// each registrant ERETRY and fails with ErrIncomplete, naming who is
// missing; one whose generations are more than one apart answers EERR and
// fails with ErrRejected, naming the oldest and newest member. Any other
// error is a registrant lost since it registered. ln stays open.
func ServeRound(ln net.Listener, r Round) (*Table, error) {
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(r.Deadline)
	}
	joins := make([]Join, r.World)
	conns := make([]net.Conn, r.World) // each slot's live registration
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	joins[r.Self.Slot] = r.Self
	var acceptErr error
	for have := 1; have < r.World; {
		conn, err := ln.Accept()
		if err != nil {
			acceptErr = err
			break
		}
		j, err := ReadJoin(conn, r.World, r.Self.Slot)
		if err != nil {
			conn.Close()
			continue
		}
		if old := conns[j.Slot]; old != nil {
			old.Close() // its client gave up, died, or redialed across generations
		} else {
			have++
		}
		conns[j.Slot], joins[j.Slot] = conn, j
	}
	var members, missing []int
	for s, c := range conns {
		if c != nil || s == r.Self.Slot {
			members = append(members, s)
		} else {
			missing = append(missing, s)
		}
	}
	if missing != nil && (r.Settle == nil || !r.Settle(members)) {
		for _, c := range conns {
			if c != nil {
				Retry(c)
			}
		}
		return nil, fmt.Errorf("%w: ranks %v registered, ranks %v missing (%v)", ErrIncomplete, members, missing, acceptErr)
	}
	t := &Table{Members: members, Addrs: make([]string, len(members))}
	lo, hi := r.Self.Slot, r.Self.Slot // the members holding the oldest and the newest generation
	for i, m := range members {
		t.Addrs[i] = joins[m].Addr
		if joins[m].Gen < joins[lo].Gen {
			lo = m
		} else if joins[m].Gen > joins[hi].Gen {
			hi = m
		}
	}
	t.StartGen = joins[lo].Gen
	line, refused := t.line(), error(nil)
	if t.StartGen < joins[hi].Gen-1 {
		reason := fmt.Sprintf("rank %d holds checkpoint generation %d and rank %d generation %d: more than one apart, so they do not see one checkpoint directory",
			lo, t.StartGen, hi, joins[hi].Gen)
		line, t, refused = "EERR "+reason+"\n", nil, fmt.Errorf("%w: %s", ErrRejected, reason)
	}
	for s, c := range conns {
		if c == nil {
			continue
		}
		if err := answer(c, line); err != nil {
			return nil, fmt.Errorf("rendezvous broadcast to rank %d: %w", s, err)
		}
	}
	return t, refused
}

// Register sends j on conn and reads the answer of a round of world slots:
// the table, or retry (ERETRY). An error that does not wrap ErrRejected is
// the exchange failing: the server is gone or dropped the connection.
func Register(conn net.Conn, j Join, world int) (tbl *Table, retry bool, err error) {
	if _, err := fmt.Fprintf(conn, "EJOIN %d %s %d\n", j.Slot, j.Addr, j.Gen); err != nil {
		return nil, false, err
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return nil, false, err
	}
	line = strings.TrimSpace(line)
	if line == "ERETRY" {
		return nil, true, nil
	}
	if reason, ok := strings.CutPrefix(line, "EERR "); ok {
		return nil, false, fmt.Errorf("%w: %s", ErrRejected, reason)
	}
	if tbl, err = parseTable(line, world); err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrRejected, err)
	}
	if !slices.Contains(tbl.Members, j.Slot) {
		return nil, false, fmt.Errorf("%w: table %v leaves out rank %d", ErrRejected, tbl.Members, j.Slot)
	}
	return tbl, false, nil
}

// rendezvous is DialTCP's round, with a fixed server: rank 0 serves one
// round on cfg.Rendezvous until deadline, and every other rank registers
// with it, again after each ERETRY. It returns the agreed addresses.
func rendezvous(cfg TCPConfig, myAddr string, deadline time.Time) ([]string, error) {
	me := Join{Slot: cfg.Rank, Addr: myAddr}
	if cfg.Rank == 0 {
		ln := cfg.RendezvousListener
		if ln == nil {
			var err error
			if ln, err = net.Listen("tcp", cfg.Rendezvous); err != nil {
				return nil, fmt.Errorf("comm: rank 0: rendezvous listener %s: %w", cfg.Rendezvous, err)
			}
		}
		defer ln.Close()
		tbl, err := ServeRound(ln, Round{World: cfg.World, Self: me, Deadline: deadline})
		if err != nil {
			return nil, fmt.Errorf("comm: rank 0: %w", err)
		}
		return tbl.Addrs, nil
	}
	var tbl *Table
	for retry := true; retry; {
		conn, err := dialRetry(cfg.Rendezvous, cfg.Rank, deadline)
		if err != nil {
			return nil, fmt.Errorf("comm: rank %d: rendezvous %s unreachable: %w", cfg.Rank, cfg.Rendezvous, err)
		}
		conn.SetDeadline(deadline)
		tbl, retry, err = Register(conn, me, cfg.World)
		conn.Close()
		if err != nil {
			return nil, fmt.Errorf("comm: rank %d: rendezvous %s: %w", cfg.Rank, cfg.Rendezvous, err)
		}
	}
	return tbl.Addrs, nil // finishDial refuses a table short of the world
}

// dialRetry dials addr with capped exponential backoff plus deterministic
// jitter until the overall deadline: the first attempts are near-immediate
// (rank 0 is usually a few milliseconds behind), later ones spread out so a
// large cohort hammering a not-yet-up rendezvous backs off instead of
// spinning. The per-rank jitter stream keeps retries from synchronizing
// without making bootstrap timing nondeterministic across runs.
func dialRetry(addr string, rank int, deadline time.Time) (net.Conn, error) {
	const (
		baseDelay = 10 * time.Millisecond
		maxDelay  = 640 * time.Millisecond
	)
	delay := baseDelay
	jseq := uint64(0)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		// Sleep delay/2 + jitter in [0, delay/2): full backoff spread, never
		// past the deadline.
		jseq++
		sleep := delay/2 + time.Duration(jitterHash(uint64(rank), rank, 0, 0, jseq)%uint64(delay/2+1))
		if until := time.Until(deadline); sleep > until {
			sleep = until
		}
		if sleep > 0 {
			time.Sleep(sleep)
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}
