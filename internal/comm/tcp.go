package comm

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Reserved tag space at the top of the uint32 range, used for
// transport-internal control frames. Application tags must stay below
// tagReservedBase; the training protocol's tags are all small integers.
const (
	tagReservedBase = 1 << 31
	tagBarrierEnter = tagReservedBase + 0
	tagBarrierLeave = tagReservedBase + 1
	tagBye          = tagReservedBase + 2
	tagHeartbeat    = tagReservedBase + 3
)

// TransportError is the panic value raised by TCPTransport operations once
// the transport has failed (a peer died, a connection broke, or Abort was
// called). RankTrainer.TrainEpoch converts it into an ordinary error at the
// epoch boundary.
type TransportError struct {
	Rank int
	Err  error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("comm: rank %d: %v", e.Rank, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// TCPConfig configures DialTCP.
type TCPConfig struct {
	Rank  int
	World int
	// Rendezvous is the host:port every rank can reach; rank 0 listens
	// there during bootstrap to collect and broadcast the address table.
	Rendezvous string
	// ListenHost is the interface data listeners bind and advertise
	// (default 127.0.0.1, which covers single-machine multi-process runs;
	// multi-host deployments must set it to the rank's reachable address).
	ListenHost string
	// QueueCap bounds the per-(peer,tag) receive queue depth; 0 selects the
	// same default (256) and bound derivation as New — a full queue blocks
	// the demux goroutine, which backpressures the connection; frames are
	// never dropped.
	QueueCap int
	// Timeout bounds the whole bootstrap (rendezvous plus mesh dial);
	// default 30s. After bootstrap, failure detection is event-driven: a
	// dying peer resets its TCP connections, which every surviving rank
	// observes directly (the mesh is fully connected). HeartbeatTimeout
	// adds detection for peers that are wedged rather than dead.
	Timeout time.Duration
	// HeartbeatInterval, when positive, makes the endpoint emit a control
	// heartbeat frame to every peer on that cadence so idle links carry
	// traffic. Heartbeats are excluded from payload byte accounting.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout, when positive, arms the wedged-peer detector: if no
	// frame (data or heartbeat) arrives from a peer for this long, the
	// transport fails with a pointed error — catching a peer that is alive
	// at the TCP level but stuck (deadlocked, paused, partitioned), which a
	// connection reset would never report. Every rank of a mesh must agree
	// on heartbeat settings, and HeartbeatTimeout should be several
	// intervals (default 4×HeartbeatInterval when only the interval is
	// set). Zero on both fields — the default — disables the machinery
	// entirely, preserving the event-driven-only behavior.
	HeartbeatTimeout time.Duration
	// RendezvousListener, if non-nil, is a pre-bound listener rank 0 uses
	// instead of listening on Rendezvous — this removes pick-a-free-port
	// races in tests. DialTCP takes ownership and closes it.
	RendezvousListener net.Listener
}

// outMsg is one whole frame queued for a peer's writer goroutine.
type outMsg struct {
	buf []byte // pooled wire bytes, returned to wireBufs after the write
	seq uint64 // monotone per peer; writtenSeq reaches it after the write
}

// sendQueueCap bounds the frames queued toward one peer's writer goroutine;
// a full queue blocks the sender (backpressure, never drops), matching the
// bounded per-pair queues on the receive side.
const sendQueueCap = 128

// tcpPeer is one established connection to another rank.
type tcpPeer struct {
	rank int
	conn *net.TCPConn
	br   *bufio.Reader

	// Outgoing frames flow through a writer goroutine so ISend takes the
	// socket write off the caller's critical path: senders fill a pooled
	// frame buffer (so their own slice is free immediately), assign the next
	// seq, and enqueue; the writer performs the conn.Write and advances
	// writtenSeq under wmu. Blocking sends and PendingSend.Wait park on
	// wcond until their seq is written or the transport fails. All frames —
	// data and control — use the queue, so the per-pair FIFO order callers
	// observe is exactly the enqueue order.
	sendQ      chan outMsg
	wmu        sync.Mutex
	wcond      *sync.Cond
	writtenSeq uint64
	enqSeq     uint64 // touched only by the rank's goroutine

	qmu    sync.Mutex
	queues map[int]chan frame
	// gone is closed by the read loop after the peer's goodbye frame has
	// been demuxed: every frame the peer sent is already queued, and no
	// more will come.
	gone chan struct{}
}

// TCPTransport is one rank's endpoint on the socket backend: one persistent
// duplex TCP connection per peer pair, a demux goroutine per connection
// routing frames into per-(peer,tag) queues, and rank bootstrap through a
// rendezvous address. Created by DialTCP.
//
// Error handling is fail-fast: any connection error (a peer process died,
// was killed, or called Abort) fails the whole transport — every blocked
// Recv and subsequent Send panics with a *TransportError naming the dead
// peer instead of deadlocking. Because the mesh is fully connected, one
// rank's death is observed by every survivor without timeouts or
// heartbeats.
type TCPTransport struct {
	rank, world int
	queueCap    int
	peers       []*tcpPeer // indexed by rank; nil at own slot

	// Heartbeat machinery (zero when disabled): hbInterval drives the
	// sender goroutine, hbTimeout arms the per-connection read deadline
	// that declares a silent peer wedged. hbStop is closed (once) by Close
	// so the sender goroutine is provably gone before the send queues are
	// closed out from under it.
	hbInterval time.Duration
	hbTimeout  time.Duration
	hbStop     chan struct{}
	hbStopOn   sync.Once
	hbWG       sync.WaitGroup

	bytesSent atomic.Int64
	msgsSent  atomic.Int64
	wireSent  atomic.Int64

	// Steady-state buffer pools (see pool.go): outgoing frames and incoming
	// frame payloads.
	wireBufs bufPool[byte]
	recvBufs bufPool[byte]

	// nreg matches consumable f32 frames (stamped by the demux goroutines)
	// against notify-posted receives; see IRecvF32Notify.
	nreg notifyReg

	closed atomic.Bool
	// closeCh is closed by Close so demux goroutines blocked on a full
	// per-(peer,tag) queue can exit: a closing endpoint will never drain
	// those queues (Recv is no longer called), and without the signal a
	// graceful Close of an endpoint with backpressured queues would
	// deadlock in readers.Wait.
	closeCh chan struct{}
	failErr error // written once before failCh closes
	failOn  sync.Once
	failCh  chan struct{}
	readers sync.WaitGroup
	writers sync.WaitGroup
}

// DialTCP bootstraps the full mesh for one rank and returns its endpoint.
// Every rank binds a data listener, registers (rank, address) with the
// rendezvous point served by rank 0, receives the complete address table,
// and then each pair establishes one duplex connection (the higher rank
// dials the lower). DialTCP returns once all world−1 connections are up.
func DialTCP(cfg TCPConfig) (*TCPTransport, error) {
	t, err := newTCPTransport(&cfg)
	if err != nil {
		return nil, err
	}
	if cfg.World == 1 || cfg.Rank != 0 {
		if cfg.RendezvousListener != nil {
			cfg.RendezvousListener.Close() // only rank 0 serves the rendezvous
		}
	}
	if cfg.World == 1 {
		return t, nil // a lone rank needs no sockets
	}
	deadline := time.Now().Add(cfg.Timeout)

	dataLn, err := net.Listen("tcp", net.JoinHostPort(cfg.ListenHost, "0"))
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d: data listener: %w", cfg.Rank, err)
	}
	defer dataLn.Close()

	addrs, err := rendezvous(cfg, dataLn.Addr().String(), deadline)
	if err != nil {
		return nil, err
	}
	return t, t.finishDial(cfg, dataLn, addrs, deadline)
}

// DialTCPMesh establishes the full mesh from an already-agreed address
// table, skipping the rendezvous phase: addrs[r] must be rank r's data
// listener address, and dataLn must be the listener this rank advertised as
// addrs[cfg.Rank]. It is the re-admission entry point the elastic recovery
// loop uses — after a generation-bumped rendezvous has produced a fresh
// table, every participant (survivor or replacement) meshes through here.
// The listener is closed before returning, like DialTCP's.
func DialTCPMesh(cfg TCPConfig, dataLn net.Listener, addrs []string) (*TCPTransport, error) {
	t, err := newTCPTransport(&cfg)
	if err != nil {
		return nil, err
	}
	if len(addrs) != cfg.World {
		return nil, fmt.Errorf("comm: rank %d: address table has %d entries, world is %d",
			cfg.Rank, len(addrs), cfg.World)
	}
	defer dataLn.Close()
	if cfg.World == 1 {
		return t, nil
	}
	return t, t.finishDial(cfg, dataLn, addrs, time.Now().Add(cfg.Timeout))
}

// newTCPTransport validates and normalizes cfg and builds the empty endpoint.
func newTCPTransport(cfg *TCPConfig) (*TCPTransport, error) {
	if cfg.World <= 0 {
		return nil, fmt.Errorf("comm: world size %d", cfg.World)
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.World {
		return nil, fmt.Errorf("comm: rank %d out of [0,%d)", cfg.Rank, cfg.World)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = defaultQueueCap
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.ListenHost == "" {
		cfg.ListenHost = "127.0.0.1"
	}
	if cfg.HeartbeatInterval > 0 && cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 4 * cfg.HeartbeatInterval
	}
	return &TCPTransport{
		rank:       cfg.Rank,
		world:      cfg.World,
		queueCap:   cfg.QueueCap,
		peers:      make([]*tcpPeer, cfg.World),
		hbInterval: cfg.HeartbeatInterval,
		hbTimeout:  cfg.HeartbeatTimeout,
		hbStop:     make(chan struct{}),
		closeCh:    make(chan struct{}),
		failCh:     make(chan struct{}),
	}, nil
}

// finishDial connects the mesh over an agreed address table and starts the
// per-peer service goroutines plus the heartbeat sender.
func (t *TCPTransport) finishDial(cfg TCPConfig, dataLn net.Listener, addrs []string, deadline time.Time) error {
	if err := t.connectMesh(cfg, dataLn, addrs, deadline); err != nil {
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		return err
	}
	for _, p := range t.peers {
		if p != nil {
			t.readers.Add(1)
			go t.readLoop(p)
			t.writers.Add(1)
			go t.writeLoop(p)
		}
	}
	if t.hbInterval > 0 {
		t.hbWG.Add(1)
		go t.heartbeatLoop()
	}
	return nil
}

// heartbeatLoop emits a control heartbeat to every peer each interval so
// idle links still carry traffic for the wedged-peer detector on the other
// side. It exits on Close (hbStop) or transport failure; isend's failure
// panic is absorbed, since the failure is already recorded.
func (t *TCPTransport) heartbeatLoop() {
	defer t.hbWG.Done()
	tick := time.NewTicker(t.hbInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-t.hbStop:
			return
		case <-t.failCh:
			return
		}
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			// Heartbeats bypass isend: the per-peer enqSeq is owned by the
			// rank's goroutine, so the sender enqueues an untracked frame
			// (seq 0 — the writer skips completion bookkeeping for it). A
			// full send queue means data is already flowing, which is all a
			// heartbeat would prove; skip rather than block.
			buf, err := appendFrameBytes(t.wireBufs.get(frameHeaderSize)[:0], tagHeartbeat, dtypeCtrl, nil)
			if err != nil {
				t.wireBufs.put(buf)
				continue
			}
			select {
			case p.sendQ <- outMsg{buf: buf}:
			default:
				t.wireBufs.put(buf)
			}
		}
	}
}

// stopHeartbeats halts the heartbeat sender and waits for it; safe to call
// multiple times and from concurrent closers.
func (t *TCPTransport) stopHeartbeats() {
	t.hbStopOn.Do(func() { close(t.hbStop) })
	t.hbWG.Wait()
}

// rendezvous exchanges (rank, dataAddr) registrations for the full address
// table. Rank 0 serves; other ranks dial with capped exponential backoff
// until rank 0 is up or the deadline expires.
//
// The server is hardened against misconfigured clients: an out-of-range
// rank gets a pointed "ERR ..." reply and its connection closed, without
// aborting the round — the correctly configured cohort still bootstraps. A
// re-registration of a rank whose earlier connection is still held (a
// client that timed out and redialed, or a recovering rank rejoining across
// generations) replaces the stale registration instead of wedging.
func rendezvous(cfg TCPConfig, myAddr string, deadline time.Time) ([]string, error) {
	if cfg.Rank == 0 {
		ln := cfg.RendezvousListener
		if ln == nil {
			var err error
			ln, err = net.Listen("tcp", cfg.Rendezvous)
			if err != nil {
				return nil, fmt.Errorf("comm: rank 0: rendezvous listener %s: %w", cfg.Rendezvous, err)
			}
		}
		defer ln.Close()
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		addrs := make([]string, cfg.World)
		addrs[0] = myAddr
		conns := make([]net.Conn, cfg.World) // live registration conn per rank
		registered := 0
		defer func() {
			for _, c := range conns {
				if c != nil {
					c.Close()
				}
			}
		}()
		for registered < cfg.World-1 {
			conn, err := ln.Accept()
			if err != nil {
				return nil, fmt.Errorf("comm: rank 0: rendezvous accept (%d of %d ranks registered): %w",
					registered, cfg.World-1, err)
			}
			conn.SetDeadline(deadline)
			var r int
			var addr string
			if _, err := fmt.Fscanf(bufio.NewReader(conn), "HELLO %d %s\n", &r, &addr); err != nil {
				fmt.Fprintf(conn, "ERR malformed rendezvous hello: %v\n", err)
				conn.Close()
				continue
			}
			if r <= 0 || r >= cfg.World {
				fmt.Fprintf(conn, "ERR rank %d outside [1,%d) — check -rank/-world against the cohort\n", r, cfg.World)
				conn.Close()
				continue
			}
			if conns[r] != nil {
				// Replace the stale registration: the old connection belongs
				// to a client that gave up or died; the latest dialer wins.
				conns[r].Close()
				registered--
			}
			conns[r] = conn
			addrs[r] = addr
			registered++
		}
		table := "ADDRS " + strings.Join(addrs, " ") + "\n"
		for _, c := range conns {
			if c == nil {
				continue
			}
			if _, err := c.Write([]byte(table)); err != nil {
				return nil, fmt.Errorf("comm: rank 0: rendezvous broadcast: %w", err)
			}
		}
		return addrs, nil
	}

	conn, err := dialRetry(cfg.Rendezvous, cfg.Rank, deadline)
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d: rendezvous %s unreachable: %w", cfg.Rank, cfg.Rendezvous, err)
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	if _, err := fmt.Fprintf(conn, "HELLO %d %s\n", cfg.Rank, myAddr); err != nil {
		return nil, fmt.Errorf("comm: rank %d: rendezvous register: %w", cfg.Rank, err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d: rendezvous table: %w", cfg.Rank, err)
	}
	if msg, ok := strings.CutPrefix(line, "ERR "); ok {
		return nil, fmt.Errorf("comm: rank %d: rendezvous rejected registration: %s", cfg.Rank, strings.TrimSpace(msg))
	}
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != cfg.World+1 || fields[0] != "ADDRS" {
		return nil, fmt.Errorf("comm: rank %d: malformed rendezvous table %q", cfg.Rank, line)
	}
	return fields[1:], nil
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

// connectMesh establishes one duplex connection per peer pair: this rank
// dials every lower rank and accepts from every higher rank.
func (t *TCPTransport) connectMesh(cfg TCPConfig, dataLn net.Listener, addrs []string, deadline time.Time) error {
	type result struct {
		peer *tcpPeer
		err  error
	}
	want := cfg.World - 1
	results := make(chan result, cfg.World)
	var producers sync.WaitGroup

	if tl, ok := dataLn.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	producers.Add(1 + cfg.Rank)
	go func() { // accept side: peers with a higher rank dial us
		defer producers.Done()
		for i := 0; i < cfg.World-1-cfg.Rank; i++ {
			conn, err := dataLn.Accept()
			if err != nil {
				results <- result{err: fmt.Errorf("comm: rank %d: mesh accept: %w", cfg.Rank, err)}
				return
			}
			conn.SetDeadline(deadline)
			br := bufio.NewReaderSize(conn, 1<<16)
			var r int
			if _, err := fmt.Fscanf(br, "PEER %d\n", &r); err != nil {
				conn.Close()
				results <- result{err: fmt.Errorf("comm: rank %d: bad mesh hello: %w", cfg.Rank, err)}
				return
			}
			if r <= cfg.Rank || r >= cfg.World {
				conn.Close()
				results <- result{err: fmt.Errorf("comm: rank %d: mesh hello from unexpected rank %d", cfg.Rank, r)}
				return
			}
			results <- result{peer: &tcpPeer{rank: r, conn: conn.(*net.TCPConn), br: br}}
		}
	}()
	for j := 0; j < cfg.Rank; j++ { // dial side: we dial every lower rank
		go func(j int) {
			defer producers.Done()
			conn, err := net.DialTimeout("tcp", addrs[j], time.Until(deadline))
			if err != nil {
				results <- result{err: fmt.Errorf("comm: rank %d: dial peer %d at %s: %w", cfg.Rank, j, addrs[j], err)}
				return
			}
			conn.SetDeadline(deadline)
			if _, err := fmt.Fprintf(conn, "PEER %d\n", cfg.Rank); err != nil {
				conn.Close()
				results <- result{err: fmt.Errorf("comm: rank %d: mesh hello to peer %d: %w", cfg.Rank, j, err)}
				return
			}
			results <- result{peer: &tcpPeer{rank: j, conn: conn.(*net.TCPConn), br: bufio.NewReaderSize(conn, 1<<16)}}
		}(j)
	}
	go func() { producers.Wait(); close(results) }()

	// On error, late results must not leak their connections: the caller
	// closes dataLn (unblocking the accept goroutine), and this drain
	// goroutine disposes of whatever the producers still deliver.
	fail := func(err error) error {
		go func() {
			for res := range results {
				if res.peer != nil {
					res.peer.conn.Close()
				}
			}
		}()
		return err
	}
	for i := 0; i < want; i++ {
		res, ok := <-results
		if !ok {
			return fail(fmt.Errorf("comm: rank %d: mesh bootstrap ended with %d of %d peers", cfg.Rank, i, want))
		}
		if res.err != nil {
			return fail(res.err)
		}
		p := res.peer
		if t.peers[p.rank] != nil {
			p.conn.Close()
			return fail(fmt.Errorf("comm: rank %d: duplicate connection from rank %d", cfg.Rank, p.rank))
		}
		p.conn.SetDeadline(time.Time{})
		p.conn.SetNoDelay(true)
		p.queues = make(map[int]chan frame)
		p.gone = make(chan struct{})
		p.sendQ = make(chan outMsg, sendQueueCap)
		p.wcond = sync.NewCond(&p.wmu)
		t.peers[p.rank] = p
	}
	return nil
}

// Rank returns this endpoint's id in [0, Size).
func (t *TCPTransport) Rank() int { return t.rank }

// Size returns the world size.
func (t *TCPTransport) Size() int { return t.world }

func (t *TCPTransport) peer(r int) *tcpPeer {
	if r < 0 || r >= t.world || r == t.rank {
		panic(fmt.Sprintf("comm: rank %d: no connection to rank %d", t.rank, r))
	}
	return t.peers[r]
}

// failure returns the panic value for the recorded transport failure.
func (t *TCPTransport) failure() *TransportError {
	return &TransportError{Rank: t.rank, Err: t.failErr}
}

// fail records the first failure, wakes every blocked operation — including
// senders parked on a writer's completion cond — and tears down all
// connections so peers observe the failure too.
func (t *TCPTransport) fail(err error) {
	t.failOn.Do(func() {
		t.failErr = err
		close(t.failCh)
		t.nreg.flush()
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close()
				if p.wcond != nil {
					p.wmu.Lock()
					p.wcond.Broadcast()
					p.wmu.Unlock()
				}
			}
		}
	})
}

// Err reports the failure that brought the transport down, or nil.
func (t *TCPTransport) Err() error {
	select {
	case <-t.failCh:
		return t.failErr
	default:
		return nil
	}
}

// Abort tears the transport down without the graceful goodbye: connections
// are reset, so every peer observes a connection error promptly. Used when
// an epoch fails mid-protocol (the surviving ranks must not be left blocked
// on messages that will never come) and by fault-injection tests to emulate
// a killed rank.
func (t *TCPTransport) Abort() {
	t.fail(fmt.Errorf("transport aborted"))
}

// readFramePooled reads one frame, drawing the payload buffer from the
// transport's receive pool; the consumer returns it once done with it.
func (t *TCPTransport) readFramePooled(r io.Reader) (frame, error) {
	var h [frameHeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return frame{}, err
	}
	tag, dtype, nelems, err := parseFrameHeader(h[:])
	if err != nil {
		return frame{}, err
	}
	payload := t.recvBufs.get(4 * nelems)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		t.recvBufs.put(payload)
		return frame{}, err
	}
	return frame{tag: tag, dtype: dtype, payload: payload}, nil
}

// readLoop demultiplexes one peer connection into per-tag queues. With the
// wedged-peer detector armed (hbTimeout > 0) every frame read carries a
// read deadline: a peer that stays connected but silent — no data, no
// heartbeats — for hbTimeout is declared dead with a pointed error, the
// failure a connection reset can never report.
func (t *TCPTransport) readLoop(p *tcpPeer) {
	defer t.readers.Done()
	for {
		if t.hbTimeout > 0 {
			p.conn.SetReadDeadline(time.Now().Add(t.hbTimeout))
		}
		fr, err := t.readFramePooled(p.br)
		if err != nil {
			if t.closed.Load() {
				return // local Close is tearing the connection down
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.fail(fmt.Errorf("peer %d is wedged: no frames or heartbeats for %v (process alive but stuck, or network partitioned)",
					p.rank, t.hbTimeout))
				return
			}
			t.fail(fmt.Errorf("peer %d is gone: %v (process died or connection lost mid-epoch)", p.rank, err))
			return
		}
		if fr.dtype == dtypeCtrl && fr.tag == tagHeartbeat {
			t.recvBufs.put(fr.payload) // liveness only; the deadline reset above is the point
			continue
		}
		if fr.dtype == dtypeCtrl && fr.tag == tagBye {
			t.recvBufs.put(fr.payload)
			close(p.gone)
			t.nreg.flushSrc(p.rank)
			return
		}
		if fr.dtype == dtypeF32 {
			// Stamp before enqueue: a notified consumer's dequeue below can
			// block only until this push lands (and the consumer is what
			// drains a backpressured queue).
			t.nreg.arrived(p.rank, fr.tag)
		}
		q := p.queue(fr.tag, t.queueCap)
		select {
		case q <- fr:
		default:
			// Queue full: block — backpressuring the connection, the same
			// never-drop semantics as the channel backend — but stay
			// responsive to transport failure and to a local Close (which
			// abandons undrained queues; nothing will ever Recv them).
			select {
			case q <- fr:
			case <-t.failCh:
				return
			case <-t.closeCh:
				return
			}
		}
	}
}

func (p *tcpPeer) queue(tag, capacity int) chan frame {
	p.qmu.Lock()
	q := p.queues[tag]
	if q == nil {
		q = make(chan frame, capacity)
		p.queues[tag] = q
	}
	p.qmu.Unlock()
	return q
}

// isend enqueues one whole frame, drawn from wireBufs, to the peer's writer
// goroutine and returns a completion handle; the writer returns the buffer to
// the pool after the socket write, which happens off the caller's critical
// path. err is the error of building the frame, which fails the transport.
// payloadBytes < 0 marks control traffic excluded from accounting.
func (t *TCPTransport) isend(dst int, payloadBytes int, buf []byte, err error) PendingSend {
	select {
	case <-t.failCh:
		panic(t.failure())
	default:
	}
	p := t.peer(dst)
	if err != nil {
		t.fail(fmt.Errorf("send to peer %d: %w", dst, err))
		panic(t.failure())
	}
	p.enqSeq++
	msg := outMsg{buf: buf, seq: p.enqSeq}
	select {
	case p.sendQ <- msg:
	default:
		select {
		case p.sendQ <- msg: // backpressure: block, never drop
		case <-t.failCh:
			panic(t.failure())
		}
	}
	if payloadBytes >= 0 {
		t.bytesSent.Add(int64(payloadBytes))
		t.msgsSent.Add(1)
	}
	return PendingSend{t: t, p: p, seq: msg.seq}
}

// writeLoop drains one peer's send queue onto the socket, advancing
// writtenSeq and waking waiters after every successful write.
func (t *TCPTransport) writeLoop(p *tcpPeer) {
	defer t.writers.Done()
	for {
		var msg outMsg
		var ok bool
		select {
		case msg, ok = <-p.sendQ:
			if !ok {
				return
			}
		case <-t.failCh:
			return
		}
		_, err := p.conn.Write(msg.buf)
		if err == nil {
			t.wireSent.Add(int64(len(msg.buf)))
		}
		if err != nil {
			// Close drains the queues (writers.Wait) before touching the
			// connections, so a write error always means the peer side went
			// away — record it, which also wakes every parked waiter.
			t.fail(fmt.Errorf("send to peer %d: %w", p.rank, err))
			return
		}
		t.wireBufs.put(msg.buf)
		if msg.seq == 0 {
			continue // untracked control frame (heartbeat): no waiter to wake
		}
		p.wmu.Lock()
		p.writtenSeq = msg.seq
		p.wcond.Broadcast()
		p.wmu.Unlock()
	}
}

// waitWritten blocks until the peer's writer has put seq on the socket,
// panicking with the transport failure if it goes down first.
func (t *TCPTransport) waitWritten(p *tcpPeer, seq uint64) {
	p.wmu.Lock()
	for p.writtenSeq < seq {
		if t.Err() != nil {
			p.wmu.Unlock()
			panic(t.failure())
		}
		p.wcond.Wait()
	}
	p.wmu.Unlock()
}

func checkAppTag(tag int) {
	if tag < 0 || tag >= tagReservedBase {
		panic(fmt.Sprintf("comm: application tag %d outside [0,%d)", tag, tagReservedBase))
	}
}

// SendF32 sends a float32 payload to dst with a tag, blocking until the
// frame is on the socket. The payload is copied into a lent frame buffer, so
// the caller's slice is free on return.
func (t *TCPTransport) SendF32(dst, tag int, data []float32) {
	sendCopy(t, dst, tag, data).Wait()
}

// ISendF32 initiates a nonblocking send of a copy of data; see ISendBufF32.
func (t *TCPTransport) ISendF32(dst, tag int, data []float32) PendingSend {
	return sendCopy(t, dst, tag, data)
}

// SendBufF32 lends the caller an n-element buffer: a float32 view of the
// payload region of a pooled outgoing frame, so what the caller gathers there
// is what goes on the wire, with no encode pass.
func (t *TCPTransport) SendBufF32(n int) []float32 {
	return f32View(t.wireBufs.get(frameHeaderSize + 4*n)[frameHeaderSize:])
}

// ISendBufF32 sends a buffer SendBufF32 lent, taking it back: the 12-byte
// header is written in place in front of the payload and the frame is handed
// to the peer's writer goroutine, which performs the socket write
// concurrently with whatever the caller does next. The returned handle's Wait
// blocks until the write completes; the epoch protocol never waits — message
// delivery is confirmed by the protocol being fully matched.
func (t *TCPTransport) ISendBufF32(dst, tag int, buf []float32) PendingSend {
	checkAppTag(tag)
	fr := frameOfF32(buf)
	_, err := encodeFrameHeader(fr[:0], tag, dtypeF32, len(buf))
	swapF32LE(fr[frameHeaderSize:])
	return t.isend(dst, 4*len(buf), fr, err)
}

// IRecvF32Notify posts a nonblocking receive with a completion
// notification; see Transport.IRecvF32Notify. The demux goroutines drain the
// sockets in the background, so the frame makes progress while the caller
// computes, and stamp the ledger as they route f32 frames, so the token
// fires when the frame is (about to be) queued for consumption.
func (t *TCPTransport) IRecvF32Notify(src, tag int, notify chan<- int, token int) PendingRecvF32 {
	checkAppTag(tag)
	t.peer(src) // validate src early, like recv would
	t.nreg.register(src, tag, notify, token)
	return PendingRecvF32{t: t, src: src, tag: tag}
}

// RecycleF32 returns the frame under a payload RecvF32 lent to the receive
// pool.
func (t *TCPTransport) RecycleF32(data []float32) {
	t.recvBufs.put(bytesOfF32(data))
}

// SendI32 sends an int32 payload to dst with a tag, blocking until the frame
// is on the socket.
func (t *TCPTransport) SendI32(dst, tag int, data []int32) {
	checkAppTag(tag)
	buf, err := appendFrameI32(t.wireBufs.get(frameHeaderSize + 4*len(data))[:0], tag, data)
	t.isend(dst, 4*len(data), buf, err).Wait()
}

// recv blocks until a frame with the given tag arrives from src, the peer
// says goodbye, or the transport fails (the latter two panic with a
// descriptive error instead of deadlocking).
func (t *TCPTransport) recv(src, tag int, want byte) frame {
	p := t.peer(src)
	q := p.queue(tag, t.queueCap)
	var fr frame
	select {
	case fr = <-q:
	default:
		select {
		case fr = <-q:
		case <-t.failCh:
			// A frame may have been queued between the poll above and the
			// failure; prefer delivering it.
			select {
			case fr = <-q:
			default:
				panic(t.failure())
			}
		case <-p.gone:
			select {
			case fr = <-q:
			default:
				panic(&TransportError{Rank: t.rank, Err: fmt.Errorf(
					"peer %d closed its transport while rank %d still expected tag %d", src, t.rank, tag)})
			}
		}
	}
	if fr.dtype != want {
		panic(&TransportError{Rank: t.rank, Err: fmt.Errorf(
			"protocol bug: expected dtype %d on tag %d from peer %d, got %d", want, tag, src, fr.dtype)})
	}
	return fr
}

// RecvF32 receives the next float32 message from src with the given tag.
// The returned slice is a view of the pooled frame payload the demux read
// the message into, with no decode pass; hand it back with RecycleF32 once
// consumed to keep steady-state epochs allocation-free.
func (t *TCPTransport) RecvF32(src, tag int) []float32 {
	checkAppTag(tag)
	fr := t.recv(src, tag, dtypeF32)
	swapF32LE(fr.payload)
	return f32View(fr.payload)
}

// RecvI32 receives the next int32 message from src with the given tag.
func (t *TCPTransport) RecvI32(src, tag int) []int32 {
	checkAppTag(tag)
	fr := t.recv(src, tag, dtypeI32)
	out := payloadI32(fr.payload)
	t.recvBufs.put(fr.payload)
	return out
}

// Barrier blocks until every rank has entered it. Implemented as gather-to-
// rank-0 plus release fan-out over control frames, which are excluded from
// byte accounting (the channel backend's barrier moves no bytes either).
func (t *TCPTransport) Barrier() {
	if t.world == 1 {
		return
	}
	if t.rank == 0 {
		for r := 1; r < t.world; r++ {
			t.recvBufs.put(t.recv(r, tagBarrierEnter, dtypeCtrl).payload)
		}
		for r := 1; r < t.world; r++ {
			t.sendCtrl(r, tagBarrierLeave)
		}
	} else {
		t.sendCtrl(0, tagBarrierEnter)
		t.recvBufs.put(t.recv(0, tagBarrierLeave, dtypeCtrl).payload)
	}
}

func (t *TCPTransport) sendCtrl(dst, tag int) {
	buf, err := appendFrameBytes(t.wireBufs.get(frameHeaderSize)[:0], tag, dtypeCtrl, nil)
	t.isend(dst, -1, buf, err).Wait()
}

// BytesSent returns the payload bytes this rank has sent since the last
// ResetCounters — headers and control traffic excluded, so the figure is
// comparable across backends and feeds the cost model unchanged.
func (t *TCPTransport) BytesSent() int64 { return t.bytesSent.Load() }

// MessagesSent returns the number of payload messages sent.
func (t *TCPTransport) MessagesSent() int64 { return t.msgsSent.Load() }

// WireBytesSent returns the total bytes written to sockets, including the
// 12-byte frame headers and control frames; WireBytesSent−BytesSent is the
// transport's framing overhead.
func (t *TCPTransport) WireBytesSent() int64 { return t.wireSent.Load() }

// ResetCounters zeroes the payload byte and message counters (wire bytes
// included).
func (t *TCPTransport) ResetCounters() {
	t.bytesSent.Store(0)
	t.msgsSent.Store(0)
	t.wireSent.Store(0)
}

// Close shuts the endpoint down gracefully: a goodbye frame tells each peer
// that no more data is coming (so their pending receives fail with a
// "closed" error rather than a connection error), the writer goroutines are
// drained and stopped, then connections are closed and the demux goroutines
// reaped. Close after a failure returns the recorded error.
func (t *TCPTransport) Close() error {
	if t.closed.Swap(true) {
		t.stopHeartbeats()
		t.readers.Wait()
		t.writers.Wait()
		return t.Err()
	}
	// The heartbeat sender must be provably stopped before the send queues
	// are closed out from under it (send on closed channel would panic).
	t.stopHeartbeats()
	if t.Err() == nil {
		for r := range t.peers {
			if t.peers[r] == nil {
				continue
			}
			func() {
				defer func() { recover() }() // peer may already be gone; goodbye is best-effort
				t.sendCtrl(r, tagBye)
			}()
		}
	}
	// The goodbyes were waited for, so the send queues are drained; closing
	// them stops the writers before the connections go away. closeCh frees
	// any demux goroutine parked on a full receive queue.
	close(t.closeCh)
	for _, p := range t.peers {
		if p != nil {
			close(p.sendQ)
		}
	}
	t.writers.Wait()
	for _, p := range t.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	t.readers.Wait()
	return t.Err()
}
