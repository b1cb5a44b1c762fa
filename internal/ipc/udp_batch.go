package ipc

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"vkernel/internal/bufpool"
	"vkernel/internal/obs"
	"vkernel/internal/vproto"
)

// BatchConfig tunes a BatchedUDPTransport; the zero value gets defaults.
type BatchConfig struct {
	// Metrics is the observability registry for the transport's net.*
	// counters. Nil gets the transport a private registry; pass the
	// node's registry to scrape transport and node as one unit.
	Metrics *obs.Registry
	// Shards is the number of SO_REUSEPORT sockets sharing the listen
	// port; the kernel hashes inbound flows across them so receive
	// processing scales over cores (0 = one per CPU, capped at 4).
	// Only Linux can bind several sockets to one port this way;
	// elsewhere a single socket is used.
	Shards int
	// Batch bounds the recvmmsg/sendmmsg vector length: how many
	// datagrams one kernel crossing can move (0 = 32).
	Batch int
	// QueueDepth bounds datagrams buffered between the rx loops and
	// each dispatch worker (0 = 512, as for UDPTransport).
	QueueDepth int
	// Workers is the number of dispatch workers (0 = one per CPU, min 2,
	// capped at 16).
	Workers int
	// HotPeers bounds the connected per-peer sockets: a peer promoted
	// to "hot" gets its own connect()ed socket, which skips the kernel
	// route/peer lookup per send and steers that peer's inbound flow to
	// a dedicated socket (0 = 4, negative disables). Linux only.
	HotPeers int
	// HotThreshold is the number of unicast sends to one peer before it
	// is promoted (0 = 64).
	HotThreshold int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.Shards <= 0 {
		c.Shards = dispatchWorkers(4)
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = udpQueueDepth
	}
	if c.Workers <= 0 {
		c.Workers = dispatchWorkers(16)
	}
	switch {
	case c.HotPeers < 0:
		c.HotPeers = 0
	case c.HotPeers == 0:
		c.HotPeers = 4
	}
	if c.HotThreshold <= 0 {
		c.HotThreshold = 64
	}
	if !batchingAvailable {
		// Degraded mode: one socket, per-datagram I/O, no connected
		// peers — semantically identical, just without the batching.
		c.Shards = 1
		c.HotPeers = 0
	}
	return c
}

// txPendingMax bounds the egress coalescer's backlog per socket. A
// sender finding the backlog full pays the per-datagram syscall inline
// instead of queueing unboundedly — natural backpressure with no drop.
const txPendingMax = 1024

// BatchStats counts the transport's batching activity, so benchmarks
// and tests can verify that coalescing actually happens.
type BatchStats struct {
	Recvs        int64 // datagrams received
	RecvBatches  int64 // recvmmsg kernel crossings that produced them
	Sends        int64 // datagrams sent through the coalescer
	SendBatches  int64 // send kernel crossings (batched + solo)
	InlineSends  int64 // sends that bypassed a saturated coalescer
	HotPromotion int64 // peers promoted to connected sockets
}

// BatchedUDPTransport is UDPTransport with the kernel crossings
// amortized (Linux; elsewhere it degrades to the per-datagram path):
//
//   - Receive: each of Shards SO_REUSEPORT sockets runs an rx loop
//     pulling up to Batch datagrams per recvmmsg call into pooled
//     frames, handled or dispatched by flow exactly like UDPTransport's
//     (same lanes and ordering, same ownership rules: the handler must
//     Retain to keep bytes past its return).
//   - Send: concurrent Sends coalesce into sendmmsg vectors. A Send
//     that finds the socket idle transmits immediately — solo traffic
//     pays no added latency — and then drains whatever queued behind it
//     while it held the socket, so bursts (retransmissions, MoveTo
//     chunk trains from many streams, invalidation fan-out) collapse
//     into a few kernel crossings. Queued sends are fire-and-forget:
//     their write errors are dropped, as datagram loss is — the
//     protocol's retransmission machinery recovers.
//   - Hot peers: after HotThreshold sends to one peer, the peer gets a
//     connect()ed socket (SO_REUSEPORT-bound to the same local port),
//     skipping the per-send peer lookup in the kernel and steering that
//     peer's inbound flow to a dedicated socket outside the shard hash.
type BatchedUDPTransport struct {
	cfg     BatchConfig
	addr    *net.UDPAddr
	socks   []*batchSock // socks[0] is the default tx socket; all are rx shards
	handler atomic.Pointer[func(*bufpool.Buf)]
	peers   peerTable
	stats   batchCounters
	rxBurst atomic.Int32 // decaying ingress-burstiness gauge, fed by the rx loops

	rx     *dispatcher[*bufpool.Buf]
	corked [][]*batchSock // per dispatch worker: scratch for cork

	mu      sync.Mutex
	closed  bool
	started bool
	hot     map[LogicalHost]*batchSock
	sendsTo map[LogicalHost]int
	hotOff  bool // hot-socket dialing failed; stop trying
	rxWG    sync.WaitGroup
}

// batchCounters are the transport's batching statistics, named net.*
// in the registry (the node layer's protocol counters are ipc.*; the
// two namespaces never overlap, so NodeStats and BatchStats cannot
// disagree about what a number counts).
type batchCounters struct {
	recvs        *obs.Counter
	recvBatches  *obs.Counter
	rxInline     *obs.Counter
	sends        *obs.Counter
	sendBatches  *obs.Counter
	inlineSends  *obs.Counter
	hotPromotion *obs.Counter
}

func newBatchCounters(r *obs.Registry) batchCounters {
	return batchCounters{
		recvs:        r.Counter("net.recvs"),
		recvBatches:  r.Counter("net.recv_batches"),
		rxInline:     r.Counter("net.rx_inline"),
		sends:        r.Counter("net.sends"),
		sendBatches:  r.Counter("net.send_batches"),
		inlineSends:  r.Counter("net.inline_sends"),
		hotPromotion: r.Counter("net.hot_promotions"),
	}
}

// batchSock is one socket of the transport: a shard of the shared port,
// or a connected hot-peer socket. Each has its own egress coalescer; the
// platform-specific mmsg vectors live in mm.
type batchSock struct {
	t    *BatchedUDPTransport
	conn *net.UDPConn
	peer *net.UDPAddr // non-nil: connected to this peer
	mm   mmsgState

	mu       sync.Mutex
	pending  []txMsg
	flushing bool
}

// txMsg is one coalesced outbound datagram. The frame is the
// coalescer's reference, released after the transmit; addr is nil on
// connected sockets.
type txMsg struct {
	frame *bufpool.Buf
	addr  *net.UDPAddr
}

// NewBatchedUDPTransport opens the shard sockets on the given address.
// As with UDPTransport, the rx machinery starts on SetHandler.
func NewBatchedUDPTransport(listen string, cfg BatchConfig) (*BatchedUDPTransport, error) {
	cfg = cfg.withDefaults()
	conns, err := listenBatch(listen, cfg.Shards)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	t := &BatchedUDPTransport{
		cfg:     cfg,
		addr:    conns[0].LocalAddr().(*net.UDPAddr),
		hot:     make(map[LogicalHost]*batchSock),
		sendsTo: make(map[LogicalHost]int),
		stats:   newBatchCounters(reg),
		corked:  make([][]*batchSock, cfg.Workers),
	}
	t.peers.init()
	for _, c := range conns {
		t.socks = append(t.socks, newBatchSock(t, c, nil))
	}
	t.rx = newDispatcher(cfg.Workers, cfg.QueueDepth, t.handle)
	return t, nil
}

func newBatchSock(t *BatchedUDPTransport, conn *net.UDPConn, peer *net.UDPAddr) *batchSock {
	sizeSockBufs(conn)
	s := &batchSock{t: t, conn: conn, peer: peer}
	s.mm.init(conn, t.cfg.Batch, peer != nil)
	return s
}

// Addr returns the transport's bound UDP address (shared by all shards).
func (t *BatchedUDPTransport) Addr() *net.UDPAddr { return t.addr }

// Stats returns a snapshot of the transport's batching counters.
func (t *BatchedUDPTransport) Stats() BatchStats {
	return BatchStats{
		Recvs:        t.stats.recvs.Load(),
		RecvBatches:  t.stats.recvBatches.Load(),
		Sends:        t.stats.sends.Load(),
		SendBatches:  t.stats.sendBatches.Load(),
		InlineSends:  t.stats.inlineSends.Load(),
		HotPromotion: t.stats.hotPromotion.Load(),
	}
}

// AddPeer registers the network address of a logical host.
func (t *BatchedUDPTransport) AddPeer(host LogicalHost, addr *net.UDPAddr) {
	t.peers.add(host, addr)
}

// Send implements Transport: the packet is coalesced with whatever else
// is in flight toward the same socket, copied into a pooled frame if it
// has to wait for a flusher.
func (t *BatchedUDPTransport) Send(to LogicalHost, pkt []byte) error {
	return t.sendPkt(to, pkt, nil)
}

// SendBuf implements BufSender: like Send, but a deferred transmit
// retains the caller's pooled frame across the egress queue instead of
// copying the bytes — the zero-copy path for reply frames, which
// already live in the pool.
func (t *BatchedUDPTransport) SendBuf(to LogicalHost, f *bufpool.Buf) error {
	return t.sendPkt(to, f.Data, f)
}

func (t *BatchedUDPTransport) sendPkt(to LogicalHost, pkt []byte, f *bufpool.Buf) error {
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
	s := t.sockFor(to, addr)
	if s.peer != nil {
		addr = nil // connected socket: the kernel already knows the peer
	}
	return s.send(pkt, f, addr)
}

// sockFor picks the socket for a peer, promoting it to a connected
// socket once it has seen HotThreshold sends (and demoting a hot socket
// whose peer rebound to a different address).
func (t *BatchedUDPTransport) sockFor(to LogicalHost, addr *net.UDPAddr) *batchSock {
	t.mu.Lock()
	if s := t.hot[to]; s != nil {
		if sameUDPAddr(s.peer, addr) {
			t.mu.Unlock()
			return s
		}
		// The peer rebound: the connected socket points at a dead
		// address. Drop it; the peer can earn a fresh one.
		delete(t.hot, to)
		t.sendsTo[to] = 0
		t.mu.Unlock()
		_ = s.conn.Close() // its rx loop exits; rxWG accounts for it
		return t.socks[0]
	}
	if t.cfg.HotPeers == 0 || t.hotOff || len(t.hot) >= t.cfg.HotPeers {
		t.mu.Unlock()
		return t.socks[0]
	}
	t.sendsTo[to]++
	// A peer moved to a new socket mid-flow would have its next packets
	// overtake those still queued for it on this one (a corked worker
	// streaming a train queues all of it): promote on a send that finds
	// the shard socket's backlog empty.
	if t.sendsTo[to] < t.cfg.HotThreshold || t.socks[0].backlogged() {
		t.mu.Unlock()
		return t.socks[0]
	}
	// Reserve the slot before dialing outside the lock; a losing racer
	// just keeps using the shard socket.
	t.hot[to] = nil
	t.mu.Unlock()

	conn, err := dialHot(t.addr, addr)
	t.mu.Lock()
	if err != nil || t.closed {
		delete(t.hot, to)
		if err != nil {
			t.hotOff = true // e.g. unsupported platform: stop retrying
		}
		t.mu.Unlock()
		if conn != nil {
			_ = conn.Close()
		}
		return t.socks[0]
	}
	s := newBatchSock(t, conn, addr)
	t.hot[to] = s
	started := t.started
	if started {
		t.rxWG.Add(1)
	}
	t.mu.Unlock()
	t.stats.hotPromotion.Add(1)
	if started {
		go t.rxLoop(s)
	}
	return s
}

// send coalesces one datagram onto the socket. If the socket is idle
// the caller becomes the flusher: it transmits immediately (no batching
// latency when traffic is sparse) and then drains anything that queued
// behind it. Otherwise the datagram is left for the active flusher —
// retaining the caller's pooled frame f when it has one (zero-copy),
// copying the bytes into a fresh frame when it doesn't. A saturated
// backlog falls back to an inline per-datagram write — backpressure,
// not loss.
//
// When the transport's own ingress is arriving in multi-datagram
// batches (rxBurst), traffic is gang-scheduled, not sparse — and on few
// cores the goroutines holding the response datagrams are runnable but
// not yet run, so a flusher that transmitted at once would ship a
// vector of one. The flusher instead yields the processor once; the
// other senders run, find the socket busy, and queue — and the whole
// gang leaves in one sendmmsg. Sparse traffic never sees the yield:
// solo receives decay the gauge to zero.
func (s *batchSock) send(pkt []byte, f *bufpool.Buf, addr *net.UDPAddr) error {
	s.mu.Lock()
	if !s.flushing {
		s.flushing = true
		s.mu.Unlock()
		if s.t.rxBurst.Load() > 1 {
			runtime.Gosched()
			s.mu.Lock()
			if len(s.pending) > 0 {
				// A gang did queue behind the yield: join it (the whole
				// batch becomes fire-and-forget, like any queued send).
				s.pending = append(s.pending, queuedTx(pkt, f, addr))
				s.mu.Unlock()
				s.drain()
				return nil
			}
			s.mu.Unlock()
		}
		s.t.stats.sends.Add(1)
		s.t.stats.sendBatches.Add(1)
		err := s.writeOne(pkt, addr) // direct: borrows pkt, no copy
		s.drain()
		return err
	}
	if len(s.pending) >= txPendingMax {
		s.mu.Unlock()
		s.t.stats.inlineSends.Add(1)
		return s.writeOne(pkt, addr)
	}
	s.pending = append(s.pending, queuedTx(pkt, f, addr))
	s.mu.Unlock()
	return nil
}

// backlogged reports whether deferred transmits are waiting on s.
func (s *batchSock) backlogged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending) > 0
}

// queuedTx builds the backlog entry for a deferred transmit: callers
// that hand over a pooled frame lend a reference (released by drain);
// bare byte slices are only valid until send returns, so they are
// copied into a frame the backlog owns.
func queuedTx(pkt []byte, f *bufpool.Buf, addr *net.UDPAddr) txMsg {
	if f != nil {
		return txMsg{frame: f.Retain(), addr: addr}
	}
	c := bufpool.Get(len(pkt))
	copy(c.Data, pkt)
	return txMsg{frame: c, addr: addr}
}

// drain flushes the backlog that accumulated while the caller held the
// socket, batch by batch, and clears the flushing flag only once the
// backlog is observed empty under the lock — so no txMsg is ever left
// behind without a flusher responsible for it.
func (s *batchSock) drain() {
	for {
		s.mu.Lock()
		batch := s.pending
		s.pending = nil
		if len(batch) == 0 {
			s.flushing = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		max := s.t.cfg.Batch
		for len(batch) > 0 {
			n := min(len(batch), max)
			s.t.stats.sends.Add(int64(n))
			s.t.stats.sendBatches.Add(1)
			s.writeBatch(batch[:n]) // best effort; errors are datagram loss
			for i := 0; i < n; i++ {
				batch[i].frame.Release()
				batch[i] = txMsg{}
			}
			batch = batch[n:]
		}
	}
}

// Broadcast implements Transport: best effort to every known peer,
// continuing past per-peer errors (first one reported), over the cached
// peer snapshot. Broadcasts are rare (name lookups), so they bypass the
// coalescer — concurrent datagram writes on one socket are safe.
func (t *BatchedUDPTransport) Broadcast(pkt []byte) error {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	var first error
	for _, a := range t.peers.snapshot() {
		if err := t.socks[0].writeOne(pkt, a); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeOne transmits a single datagram, bypassing the batch vectors.
func (s *batchSock) writeOne(pkt []byte, addr *net.UDPAddr) error {
	if addr == nil {
		_, err := s.conn.Write(pkt)
		return err
	}
	_, err := s.conn.WriteToUDP(pkt, addr)
	return err
}

// readOne is the per-datagram receive shared by the non-Linux build and
// the fallback when the raw descriptor is unavailable: fill scratch[0],
// record its length, learn the sender, report one datagram.
func (s *batchSock) readOne(scratch [][]byte, lens []int, peers *peerTable) (int, error) {
	n, from, err := s.conn.ReadFromUDPAddrPort(scratch[0])
	if err != nil {
		return 0, err
	}
	lens[0] = n
	peers.learn(scratch[0][:n], from)
	return 1, nil
}

// rxLoop drives one socket: each iteration pulls up to Batch datagrams
// in one kernel crossing into loop-owned scratch slabs and sorts them
// through an rxBatch (so a worker still sees the multi-frame batches,
// now of move packets only, that arm its corking). The recvmmsg vector
// is backed by the scratch slabs, not pooled frames: recvmmsg needs its
// buffers posted before the blocking read, and a pooled vector posted
// that way would stay checked out of the pool for as long as the socket
// sits idle, reading as a leak to anything auditing bufpool.Outstanding.
func (t *BatchedUDPTransport) rxLoop(s *batchSock) {
	defer t.rxWG.Done()
	scratch := make([][]byte, t.cfg.Batch)
	for i := range scratch {
		scratch[i] = make([]byte, vproto.MaxWireSize)
	}
	lens := make([]int, t.cfg.Batch)
	batch := newRxBatch(t.rx, &t.handler, t.stats.rxInline)
	for {
		n, err := s.readBatch(scratch, lens, &t.peers)
		if err != nil {
			return // closed
		}
		t.stats.recvs.Add(int64(n))
		t.stats.recvBatches.Add(1)
		// Feed the burstiness gauge: a multi-datagram batch arms the
		// egress gang-coalescing, solo batches decay it back off.
		if n > 1 {
			t.rxBurst.Store(int32(n))
		} else if v := t.rxBurst.Load(); v > 0 {
			t.rxBurst.Store(v - 1)
		}
		for i := 0; i < n; i++ {
			batch.add(scratch[i][:lens[i]])
		}
		batch.flush()
	}
}

// handle is the dispatcher's run function for worker w: upcall and
// release each frame, as UDPTransport does — but around a multi-datagram
// batch the tx sockets are corked, so the packets the handlers generate
// coalesce into sendmmsg vectors instead of paying one kernel crossing
// each. Only move packets reach a worker; an rx loop sending meanwhile
// queues behind the cork and leaves in the worker's vector.
func (t *BatchedUDPTransport) handle(w int, batch []*bufpool.Buf) {
	corked := t.corked[w][:0]
	if len(batch) > 1 {
		corked = t.cork(corked)
	}
	for _, f := range batch {
		upcall(&t.handler, f)
		f.Release()
	}
	for _, s := range corked {
		s.drain()
	}
	clear(corked)
	t.corked[w] = corked
}

// cork claims flusher duty on every socket that has no active flusher,
// appending the claimed sockets to dst. Sends issued while a socket is
// corked queue onto its backlog; the caller must drain each claimed
// socket afterwards. Sockets already mid-flush are skipped — their
// active flusher's drain loop will pick up anything queued behind it.
func (t *BatchedUDPTransport) cork(dst []*batchSock) []*batchSock {
	t.mu.Lock()
	all := append(dst, t.socks...)
	for _, s := range t.hot {
		if s != nil {
			all = append(all, s)
		}
	}
	t.mu.Unlock()
	n := 0
	for _, s := range all {
		s.mu.Lock()
		if !s.flushing {
			s.flushing = true
			all[n] = s
			n++
		}
		s.mu.Unlock()
	}
	return all[:n]
}

// SetHandler implements Transport; the first call starts the rx loops.
func (t *BatchedUDPTransport) SetHandler(h func(*bufpool.Buf)) {
	if h == nil {
		t.handler.Store(nil)
	} else {
		t.handler.Store(&h)
	}
	t.mu.Lock()
	start := !t.started && !t.closed
	var socks []*batchSock
	if start {
		t.started = true
		socks = append(socks, t.socks...)
		for _, s := range t.hot {
			if s != nil {
				socks = append(socks, s)
			}
		}
		t.rxWG.Add(len(socks))
	}
	t.mu.Unlock()
	for _, s := range socks {
		go t.rxLoop(s)
	}
}

// Close implements Transport: close every socket (shards and hot
// peers), wait for the rx loops, then drain and stop the dispatcher.
func (t *BatchedUDPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]*net.UDPConn, 0, len(t.socks)+len(t.hot))
	for _, s := range t.socks {
		conns = append(conns, s.conn)
	}
	for _, s := range t.hot {
		if s != nil {
			conns = append(conns, s.conn)
		}
	}
	t.mu.Unlock()
	var first error
	for _, c := range conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.rxWG.Wait()
	t.rx.close()
	return first
}
