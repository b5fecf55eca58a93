package comm

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

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

// sendQueueCap bounds the frames queued toward one peer's writer goroutine;
// a full queue blocks the sender (backpressure, never drops), matching the
// bounded per-stream queues on the receive side.
const sendQueueCap = 128

// tcpPeer is one established connection to another rank.
type tcpPeer struct {
	rank int
	conn *net.TCPConn
	br   *bufio.Reader

	// Outgoing frames flow through a writer goroutine so a send takes the
	// socket write off the caller's critical path: senders fill a pooled
	// frame buffer and enqueue it, and a send is complete once queued; the
	// writer performs the conn.Write and returns the buffer to the pool. All
	// frames — data and control — use the queue, so the per-stream FIFO order
	// callers observe is exactly the enqueue order.
	sendQ chan []byte
}

// TCPTransport is one rank's endpoint on the socket backend: one persistent
// duplex TCP connection per peer pair, a demux goroutine per connection
// pushing frames into the endpoint's inbox (one queue per (peer, tag)
// stream), and rank bootstrap through a rendezvous address. Created by
// DialTCP.
//
// Error handling is fail-fast: any connection error (a peer process died,
// was killed, or called Abort) fails the whole transport — every blocked
// Recv and subsequent Send panics with a *TransportError naming the dead
// peer instead of deadlocking. Because the mesh is fully connected, one
// rank's death is observed by every survivor without timeouts or
// heartbeats.
type TCPTransport struct {
	*inbox
	peers []*tcpPeer // indexed by rank; nil at own slot

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

	wireSent atomic.Int64

	// Steady-state buffer pools (see pool.go): outgoing frames and incoming
	// frame payloads.
	wireBufs bufPool[byte]
	recvBufs bufPool[byte]

	closed atomic.Bool
	// closeCh is closed by Close so demux goroutines blocked on a full
	// inbox stream can exit: a closing endpoint will never drain those
	// streams (Recv is no longer called), and without the signal a graceful
	// Close of an endpoint with backpressured streams would deadlock in
	// readers.Wait.
	closeCh chan struct{}
	readers sync.WaitGroup
	writers sync.WaitGroup
}

// DialTCP bootstraps the full mesh for one rank and returns its endpoint.
// Every rank binds a data listener, registers (rank, address) with the
// rendezvous point served by rank 0, receives the complete address table,
// and then each pair establishes one duplex connection (the higher rank
// dials the lower). DialTCP returns once all world−1 connections are up.
func DialTCP(cfg TCPConfig) (*TCPTransport, error) {
	if cfg.RendezvousListener != nil {
		defer cfg.RendezvousListener.Close() // only rank 0 serves on it, and only during bootstrap
	}
	t, err := newTCPTransport(&cfg)
	if err != nil {
		return nil, err
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
// The listener is closed before returning on every path, like DialTCP's.
func DialTCPMesh(cfg TCPConfig, dataLn net.Listener, addrs []string) (*TCPTransport, error) {
	defer dataLn.Close()
	t, err := newTCPTransport(&cfg)
	if err != nil {
		return nil, err
	}
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
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.ListenHost == "" {
		cfg.ListenHost = "127.0.0.1"
	}
	if cfg.HeartbeatInterval > 0 && cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 4 * cfg.HeartbeatInterval
	}
	t := &TCPTransport{
		peers:      make([]*tcpPeer, cfg.World),
		hbInterval: cfg.HeartbeatInterval,
		hbTimeout:  cfg.HeartbeatTimeout,
		hbStop:     make(chan struct{}),
		closeCh:    make(chan struct{}),
	}
	t.inbox = newInbox(cfg.Rank, cfg.World, defaultQueueCap, newFailure(), t.sendCtrl)
	return t, nil
}

// finishDial connects the mesh over an agreed address table and starts the
// per-peer service goroutines plus the heartbeat sender.
func (t *TCPTransport) finishDial(cfg TCPConfig, dataLn net.Listener, addrs []string, deadline time.Time) error {
	if len(addrs) != cfg.World {
		return fmt.Errorf("comm: rank %d: address table has %d entries, world is %d", cfg.Rank, len(addrs), cfg.World)
	}
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
// side. It exits on Close (hbStop) or transport failure.
func (t *TCPTransport) heartbeatLoop() {
	defer t.hbWG.Done()
	tick := time.NewTicker(t.hbInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-t.hbStop:
			return
		case <-t.failed.ch:
			return
		}
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			// Heartbeats bypass isend, which blocks on a full send queue: a
			// full queue means data is already flowing, which is all a
			// heartbeat would prove; skip rather than block.
			buf, err := appendFrameBytes(t.wireBufs.get(frameHeaderSize)[:0], tagHeartbeat, dtypeCtrl, nil)
			if err != nil {
				t.wireBufs.put(buf)
				continue
			}
			select {
			case p.sendQ <- buf:
				t.wireSent.Add(int64(len(buf)))
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
		p.sendQ = make(chan []byte, sendQueueCap)
		t.peers[p.rank] = p
	}
	return nil
}

func (t *TCPTransport) peer(r int) *tcpPeer {
	if r < 0 || r >= len(t.peers) || r == t.rank {
		panic(fmt.Sprintf("comm: rank %d: no connection to rank %d", t.rank, r))
	}
	return t.peers[r]
}

// fail records the first failure, wakes every blocked operation and tears
// down all connections so peers observe the failure too.
func (t *TCPTransport) fail(err error) {
	if t.failed.set(err) {
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close()
			}
		}
	}
}

// Err reports the failure that brought the transport down, or nil.
func (t *TCPTransport) Err() error {
	select {
	case <-t.failed.ch:
		return t.failed.err
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

// readLoop demultiplexes one peer connection into the inbox. With the
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
		fr, err := readFrame(p.br, &t.recvBufs)
		if err != nil {
			if t.closed.Load() {
				return // local Close is tearing the connection down
			}
			var ne net.Error
			switch {
			case errors.As(err, &ne) && ne.Timeout():
				t.fail(fmt.Errorf("peer %d is wedged: no frames or heartbeats for %v (process alive but stuck, or network partitioned)",
					p.rank, t.hbTimeout))
			case ne != nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
				t.fail(fmt.Errorf("peer %d is gone: %v (process died or connection lost mid-epoch)", p.rank, err))
			default: // the frame arrived whole but does not decode
				t.fail(fmt.Errorf("peer %d broke the protocol: %v", p.rank, err))
			}
			return
		}
		// Each message kind keeps to its own tags, checked here where a
		// peer's bytes enter: float32 rows on application tags, control
		// frames on the reserved ones. A float32 payload stays in its frame
		// buffer, lent to the consumer until RecycleF32; a barrier's control
		// message is a nil payload on its tag.
		var data []float32
		if fr.dtype == dtypeF32 && fr.tag < tagReservedBase {
			swapF32LE(fr.payload)
			data = f32View(fr.payload)
		} else {
			t.recvBufs.put(fr.payload)
			switch {
			case fr.dtype == dtypeCtrl && fr.tag == tagHeartbeat:
				continue // liveness only; the deadline reset above is the point
			case fr.dtype == dtypeCtrl && fr.tag == tagBye:
				t.depart(p.rank)
				return
			case fr.dtype != dtypeCtrl || fr.tag != tagBarrierEnter && fr.tag != tagBarrierLeave:
				t.fail(fmt.Errorf("peer %d broke the protocol: a frame of dtype %d on tag %d", p.rank, fr.dtype, fr.tag))
				return
			}
		}
		// A full stream blocks here — backpressuring the connection, the
		// same never-drop semantics as the channel backend — but stays
		// responsive to transport failure and to a local Close (which
		// abandons undrained streams; nothing will ever Recv them).
		if !t.push(p.rank, fr.tag, data, t.closeCh) {
			return
		}
	}
}

// isend queues one whole frame, drawn from wireBufs, for the peer's writer
// goroutine, which writes it and returns the buffer to the pool; the send is
// complete once queued. err is the error of building the frame, which fails
// the transport. The wire counter counts every frame.
func (t *TCPTransport) isend(dst int, buf []byte, err error) {
	select {
	case <-t.failed.ch:
		panic(t.failure())
	default:
	}
	p := t.peer(dst)
	if err != nil {
		t.fail(fmt.Errorf("send to peer %d: %w", dst, err))
		panic(t.failure())
	}
	select {
	case p.sendQ <- buf:
	default:
		select {
		case p.sendQ <- buf: // backpressure: block, never drop
		case <-t.failed.ch:
			panic(t.failure())
		}
	}
	t.wireSent.Add(int64(len(buf)))
}

// writeLoop drains one peer's send queue onto the socket. It exits once Close
// has closed the queue and every frame queued before is written, or when the
// transport fails.
func (t *TCPTransport) writeLoop(p *tcpPeer) {
	defer t.writers.Done()
	for {
		var buf []byte
		var ok bool
		select {
		case buf, ok = <-p.sendQ:
			if !ok {
				return
			}
		case <-t.failed.ch:
			return
		}
		if _, err := p.conn.Write(buf); err != nil {
			// Close drains the queues (writers.Wait) before touching the
			// connections, so a write error always means the peer side went
			// away — record it, which also wakes every blocked sender.
			t.fail(fmt.Errorf("send to peer %d: %w", p.rank, err))
			return
		}
		t.wireBufs.put(buf)
	}
}

// SendBufF32 lends the caller an n-element buffer: a float32 view of the
// payload region of a pooled outgoing frame, so what the caller gathers there
// is what goes on the wire, with no encode pass.
func (t *TCPTransport) SendBufF32(n int) []float32 {
	return f32View(t.wireBufs.get(frameHeaderSize + 4*n)[frameHeaderSize:])
}

// ISendBufF32 sends a buffer SendBufF32 lent, taking it back: the 12-byte
// header is written in place in front of the payload and the frame is queued
// for the peer's writer goroutine, which performs the socket write
// concurrently with whatever the caller does next.
func (t *TCPTransport) ISendBufF32(dst, tag int, buf []float32) {
	checkAppTag(tag)
	fr := frameOfF32(buf)
	_, err := encodeFrameHeader(fr[:0], tag, dtypeF32, len(buf))
	swapF32LE(fr[frameHeaderSize:])
	t.isend(dst, fr, err)
	t.sent(len(buf))
}

// RecycleF32 returns the frame under a payload RecvF32 lent to the receive
// pool.
func (t *TCPTransport) RecycleF32(data []float32) {
	t.recvBufs.put(bytesOfF32(data))
}

// sendCtrl queues a control frame: a header on a reserved tag and no
// payload, uncounted as payload.
func (t *TCPTransport) sendCtrl(dst, tag int) {
	buf, err := appendFrameBytes(t.wireBufs.get(frameHeaderSize)[:0], tag, dtypeCtrl, nil)
	t.isend(dst, buf, err)
}

// WireBytesSent returns the total bytes of the frames queued for the sockets,
// including the 12-byte frame headers and control frames;
// WireBytesSent−BytesSent is the transport's framing overhead.
func (t *TCPTransport) WireBytesSent() int64 { return t.wireSent.Load() }

// Close shuts the endpoint down gracefully: a goodbye frame tells each peer
// that no more data is coming (so their pending receives fail with a
// "closed" error rather than a connection error), the writer goroutines
// write out everything queued and stop, then connections are closed and the
// demux goroutines reaped. Close after a failure returns the recorded error.
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
	// A writer drains its closed queue before it exits, so every frame sent
	// so far and the goodbye reach the socket before the connections go
	// away. closeCh frees any demux goroutine parked on a full inbox stream.
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
