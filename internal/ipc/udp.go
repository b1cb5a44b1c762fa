package ipc

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"vkernel/internal/bufpool"
	"vkernel/internal/obs"
	"vkernel/internal/vproto"
)

// udpQueueDepth bounds datagrams buffered between the socket read loop
// and each dispatch worker; when a worker's queue is full, the read loop
// blocks and further arrivals spill into the kernel socket buffer (and
// are eventually dropped — the protocol recovers by retransmission, as it
// does for any datagram loss).
const udpQueueDepth = 512

// udpSockBuf is the kernel buffer both UDP transports ask for on every
// socket, best effort: a 64 KB train is 64 back-to-back datagrams, and
// two of them converging on one socket overflow the ~208 KB Linux
// default — each loss then costs a retransmit timeout, not a resume.
const udpSockBuf = 1 << 20

// sizeSockBufs applies udpSockBuf to a socket. Errors are ignored: the
// kernel clamps to its own limits and the protocol survives loss.
func sizeSockBufs(conn *net.UDPConn) {
	_ = conn.SetReadBuffer(udpSockBuf)
	_ = conn.SetWriteBuffer(udpSockBuf)
}

// UDPConfig tunes a UDPTransport; the zero value gets the defaults that
// used to be compile-time constants.
type UDPConfig struct {
	// Metrics is the observability registry for the transport's net.*
	// counters (same names as BatchedUDPTransport's, minus the batching
	// ones — this transport moves one datagram per kernel crossing).
	// Nil gets a private registry.
	Metrics *obs.Registry
	// QueueDepth bounds datagrams buffered between the socket read loop
	// and each dispatch worker (0 = 512).
	QueueDepth int
	// Workers is the number of dispatch workers (0 = one per CPU, min 2,
	// capped at 16).
	Workers int
}

func (c UDPConfig) withDefaults() UDPConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = udpQueueDepth
	}
	if c.Workers <= 0 {
		c.Workers = dispatchWorkers(16)
	}
	return c
}

// UDPTransport carries interkernel packets in UDP datagrams — the modern
// stand-in for the paper's "raw Ethernet data link level": an unreliable,
// unordered datagram service with no transport layer on top. Peers are
// registered explicitly (the analogue of the §3.1 logical-host-to-network
// address table); Broadcast sends to every registered peer.
//
// Received datagrams go through a dispatcher rather than being handled
// inline in the single socket read loop, so one host's packet processing
// scales across cores; the handler must therefore be safe for concurrent
// invocation (Node is). The dispatcher keeps each (src pid, dst pid)
// flow on one worker, so the handler sees a flow's packets in the order
// the socket delivered them — see the Transport contract.
//
// Receive buffers are pooled and reference counted. The read loop fills a
// fresh pooled frame per datagram and transfers its single reference to
// the dispatcher; the worker that dequeues it owns that reference across
// the handler upcall and releases it when the handler returns. The read
// loop never touches a frame after handing it off, so a worker can never
// observe a recycled buffer mid-dispatch — the lifetime audit is the ref
// count.
//
// This transport pays one kernel crossing per datagram in each
// direction; BatchedUDPTransport amortizes those crossings with
// recvmmsg/sendmmsg vectors on Linux.
type UDPTransport struct {
	conn    *net.UDPConn
	handler atomic.Pointer[func(*bufpool.Buf)]
	peers   peerTable

	sends *obs.Counter // set once at construction
	recvs *obs.Counter

	rx *dispatcher[*bufpool.Buf]

	mu      sync.Mutex
	closed  bool
	started bool
	reader  sync.WaitGroup // the read loop
}

// NewUDPTransport opens a UDP socket on the given address (use
// "127.0.0.1:0" for tests) with default tuning. The read loop starts when
// SetHandler installs the upcall, so no packet can arrive before there is
// a handler for it.
func NewUDPTransport(listen string) (*UDPTransport, error) {
	return NewUDPTransportConfig(listen, UDPConfig{})
}

// NewUDPTransportConfig is NewUDPTransport with explicit queue and
// worker-pool tuning.
func NewUDPTransportConfig(listen string, cfg UDPConfig) (*UDPTransport, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("ipc: resolve %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("ipc: listen %q: %w", listen, err)
	}
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	sizeSockBufs(conn)
	t := &UDPTransport{
		conn:  conn,
		sends: reg.Counter("net.sends"),
		recvs: reg.Counter("net.recvs"),
	}
	t.peers.init()
	t.rx = newDispatcher(cfg.Workers, cfg.QueueDepth, t.handle)
	return t, nil
}

// Addr returns the transport's bound UDP address.
func (t *UDPTransport) Addr() *net.UDPAddr { return t.conn.LocalAddr().(*net.UDPAddr) }

// AddPeer registers the network address of a logical host.
func (t *UDPTransport) AddPeer(host LogicalHost, addr *net.UDPAddr) {
	t.peers.add(host, addr)
}

// readLoop pulls datagrams off the socket and feeds the dispatcher, each
// to the worker its flow belongs to. The socket read lands
// in a loop-owned scratch buffer, not a pooled frame: a pooled frame
// posted before the blocking read would stay checked out for as long as
// the socket sits idle, so an idle transport would pin pool memory
// forever (and read as a leak to anything auditing Outstanding). Only
// once a datagram has actually arrived is a pooled frame taken — sized
// to the datagram, so small packets draw from the small size classes —
// and its single reference rides the queue to a worker, with no reuse
// until that worker's release. Datagrams larger than a maximal
// interkernel packet are truncated and fail the decode checksum, as any
// non-protocol traffic does.
func (t *UDPTransport) readLoop() {
	defer t.reader.Done()
	scratch := make([]byte, vproto.MaxWireSize)
	for {
		n, from, err := t.conn.ReadFromUDP(scratch)
		if err != nil {
			return // closed
		}
		f := bufpool.Get(n)
		copy(f.Data, scratch[:n])
		t.peers.learn(f.Data, from)
		t.recvs.Add(1)
		t.rx.enqueue(t.rx.workerOf(f.Data), []*bufpool.Buf{f})
	}
}

// handle is the dispatcher's run function: it invokes the handler on
// each frame and returns the queue's reference afterwards. The handler is
// an atomic pointer rather than a field under t.mu, so dispatch never
// contends on the transport mutex and later SetHandler calls still take
// effect.
func (t *UDPTransport) handle(_ int, batch []*bufpool.Buf) {
	for _, f := range batch {
		if h := t.handler.Load(); h != nil {
			(*h)(f)
		}
		f.Release()
	}
}

// Send implements Transport.
func (t *UDPTransport) Send(to LogicalHost, pkt []byte) error {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	addr := t.peers.get(to)
	if addr == nil {
		// Unknown host: broadcast, as the kernel does (§3.1).
		return t.Broadcast(pkt)
	}
	t.sends.Add(1)
	_, err := t.conn.WriteToUDP(pkt, addr)
	return err
}

// Broadcast implements Transport. Delivery is best effort per peer: one
// unreachable address must not starve the rest of the mesh (a broadcast
// name lookup still has to reach the peers that can answer), so errors
// are collected rather than aborting the sweep, and the first one is
// returned. The address snapshot is cached in the peer table and reused
// until AddPeer or learning actually changes the peer set.
func (t *UDPTransport) Broadcast(pkt []byte) error {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	var first error
	for _, a := range t.peers.snapshot() {
		if _, err := t.conn.WriteToUDP(pkt, a); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetHandler implements Transport. The first call starts the read loop;
// installing the handler before any packet can be read closes the seed's
// startup race where early datagrams were dropped.
func (t *UDPTransport) SetHandler(h func(*bufpool.Buf)) {
	if h == nil {
		t.handler.Store(nil)
	} else {
		t.handler.Store(&h)
	}
	t.mu.Lock()
	start := !t.started && !t.closed
	if start {
		t.started = true
		t.reader.Add(1)
	}
	t.mu.Unlock()
	if start {
		go t.readLoop()
	}
}

// Close implements Transport.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	err := t.conn.Close()
	t.reader.Wait() // the read loop exits on the closed socket
	t.rx.close()    // the workers drain what it queued
	return err
}
