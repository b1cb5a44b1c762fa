package ipc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"vkernel/internal/bufpool"
	"vkernel/internal/obs"
)

// udpQueueDepth bounds the packets (not items, which may be 64 KB trains,
// each charged for its whole buffer: see addSegments) queued for each
// dispatch worker; when a worker's queue is full, the read loop blocks
// and further arrivals spill into the kernel socket buffer (and are
// eventually dropped — the protocol recovers by retransmission, as it
// does for any datagram loss).
const udpQueueDepth = 512

// udpSockBuf is the kernel buffer UDPTransport asks for on its socket,
// best effort: a 64 KB train is 64 back-to-back datagrams, and two of
// them converging on one socket overflow the ~208 KB Linux default —
// each loss then costs a retransmit timeout, not a resume.
const udpSockBuf = 1 << 20

// errNoGSO declines a train: the kernel will not segment for this socket.
var errNoGSO = errors.New("ipc: no UDP segmentation offload")

// rxItem is one entry on a UDP dispatch queue: a move packet's pooled
// frame, or a train (see trainLen) in place from byte at of its receive
// buffer (past an exchange packet the read loop handled, see
// addSegments).
type rxItem struct {
	frame *bufpool.Buf
	train []byte
	at    int
}

// deliver hands the item's packets to the handler, then returns a frame
// to the pool or a train's buffer to put. A train's packets are lent back
// to back in one upcall through view, a frame with no references.
func (it *rxItem) deliver(h *atomic.Pointer[func(*bufpool.Buf)], view *bufpool.Buf, put func([]byte)) {
	if it.frame != nil {
		upcall(h, it.frame)
		it.frame.Release()
		return
	}
	view.Data = it.train[it.at:]
	upcall(h, view)
	put(it.train)
}

// rxBufSize is a UDP read loop's receive buffer: a maximal datagram,
// since a coalesced train is one.
const rxBufSize = 1 << 16

// rxBufs holds the receive buffers of every UDP read loop. Not bufpool
// buffers: a read loop holds one across its blocking read, and an idle
// transport must not pin pool memory (or read as a leak to anything
// auditing bufpool.Outstanding). How many are in flight follows the
// trains the dispatch queues hold, so nothing here is sized: the pool
// keeps what the traffic used and gives it back to the collector.
var rxBufs = sync.Pool{New: func() any { return new([rxBufSize]byte) }}

func getRxBuf() []byte { return rxBufs.Get().(*[rxBufSize]byte)[:] }

func putRxBuf(b []byte) { rxBufs.Put((*[rxBufSize]byte)(b[:rxBufSize])) }

// rxBatch sorts the packets of one kernel crossing (see queued): exchange
// packets are handled on the spot, counted in net.rx_inline; move packets
// are gathered per dispatch worker, so the read loop pays one queue
// operation and one wake-up per worker and crossing, not per packet, and
// each flow's moves stay in arrival order.
type rxBatch struct {
	rx             *dispatcher[rxItem]
	handler        *atomic.Pointer[func(*bufpool.Buf)] // the transport's upcall
	inline, trains *obs.Counter
	sub            [][]rxItem // per worker, frames only
}

func newRxBatch(rx *dispatcher[rxItem], handler *atomic.Pointer[func(*bufpool.Buf)], inline, trains *obs.Counter) *rxBatch {
	return &rxBatch{rx: rx, handler: handler, inline: inline, trains: trains, sub: make([][]rxItem, len(rx.queues))}
}

// add copies one received packet into a pooled frame sized to it. The
// frame's single reference either rides the batch, then the queue, to a
// worker, or is held across the inline upcall and released after it.
func (b *rxBatch) add(pkt []byte) {
	f := bufpool.Get(len(pkt))
	copy(f.Data, pkt)
	if queued(f.Data) {
		w := b.rx.workerOf(f.Data)
		b.sub[w] = append(b.sub[w], rxItem{frame: f})
		return
	}
	b.inline.Add(1)
	upcall(b.handler, f)
	f.Release()
}

// upcall invokes the installed handler, if any, on the caller's frame.
// An atomic pointer, not a field under a mutex: delivery never contends
// on the transport mutex, and later SetHandler calls still take effect.
func upcall(h *atomic.Pointer[func(*bufpool.Buf)], f *bufpool.Buf) {
	if fn := h.Load(); fn != nil {
		(*fn)(f)
	}
}

// trainLen returns how many packets pkts, segSize bytes each, holds if
// they are two or more move packets of flow, else 0.
func trainLen(pkts []byte, segSize int, flow uint32) int {
	if len(pkts) <= segSize {
		return 0
	}
	n := 0
	for rest := pkts; len(rest) > 0; n++ {
		seg := rest[:min(segSize, len(rest))]
		if !queued(seg) || flowOf(seg) != flow {
			return 0
		}
		rest = rest[len(seg):]
	}
	return n
}

// addSegments hands one received datagram on and returns how many
// packets it held: with segSize > 0 a train the kernel coalesced
// (UDP_GRO), segSize bytes per packet, the last one possibly shorter —
// and possibly of more than one flow, since receive offload merges by
// socket pair. A train of one flow's moves goes to its worker whole
// (net.rx_trains; whole: dgram is the worker's until deliver puts it
// back), and so does one led by an exchange packet of its flow (a Send
// heading its push), which is first handled inline in a frame of its
// own, as a lone one is; anything else is split. The queue bound charges
// a train for its buffer, not its packets — every segSize bytes of
// cap(dgram) as one packet — so a queue of short trains holds no more
// memory than one of pooled frames.
func (b *rxBatch) addSegments(dgram []byte, segSize int) (n int, whole bool) {
	if segSize <= 0 {
		segSize = len(dgram)
	}
	if len(dgram) > segSize {
		at := 0
		if !queued(dgram) {
			at = segSize
		}
		if n := trainLen(dgram[at:], segSize, flowOf(dgram)); n > 0 {
			if at > 0 {
				b.add(dgram[:at])
				n++
			}
			slots := (cap(dgram) + segSize - 1) / segSize
			b.rx.enqueue(b.rx.workerOf(dgram), []rxItem{{train: dgram, at: at}}, slots)
			b.trains.Add(1)
			return n, true
		}
	}
	for n := 1; ; n++ {
		seg := dgram[:min(segSize, len(dgram))]
		b.add(seg)
		if dgram = dgram[len(seg):]; len(dgram) == 0 {
			b.flush()
			return n, false
		}
	}
}

// flush hands the gathered frames to their workers.
func (b *rxBatch) flush() {
	for w, items := range b.sub {
		if len(items) > 0 {
			b.rx.enqueue(w, items, len(items))
			clear(items)
			b.sub[w] = items[:0]
		}
	}
}

// UDPConfig configures a UDPTransport. Dispatch is sized by the
// transport itself: one worker per CPU (2..16), udpQueueDepth each.
type UDPConfig struct {
	// Metrics is the observability registry for the transport's net.*
	// counters (see UDPTransport). Nil gets a private registry.
	Metrics *obs.Registry
}

// UDPTransport carries interkernel packets in UDP datagrams — the modern
// stand-in for the paper's "raw Ethernet data link level": an unreliable,
// unordered datagram service with no transport layer on top. Peers are
// registered explicitly (the analogue of the §3.1 logical-host-to-network
// address table); Broadcast sends to every registered peer.
//
// The socket read loop handles exchange packets (§3.2) itself: their
// handlers never wait on the network, and a goroutine hop would cost more
// than they do. Move packets go through a dispatcher, so bulk copies and
// train sends scale across cores without holding up the read loop; it
// keeps each (src pid, dst pid) flow on one worker, in socket order. The
// handler runs concurrently and must be safe for it (Node is) — see the
// Transport contract.
//
// The read loop reads into a 64 KB buffer (rxBufs). A coalesced train of
// one flow's moves goes to the flow's worker whole, which lends the
// handler its packets in place in one upcall — past its head if an
// exchange packet of the flow led it (a Send heading its push), which the
// read loop handles first, in a frame of its own. Anything else is split
// into pooled frames sized to each packet, whose reference the read loop
// holds across an inline upcall or passes to a worker, released when the
// handler returns: a retained Send or Reply never pins a 64 KB buffer.
//
// A packet costs one kernel crossing in each direction; a §3.3 train
// (SendTrain) costs one per train frame where the kernel has UDP generic
// segmentation offload. The sender passes the frame down whole with a
// UDP_SEGMENT control message and the kernel cuts it into datagrams below
// the stack; a receiving socket with UDP_GRO gets the train back in one
// read (see above). Nothing is configured: the socket asks for UDP_GRO
// best effort, and the first train the kernel refuses (no checksum
// offload on the route, an MTU below the segment size, no UDP_SEGMENT)
// is the last one offered — trains go out per datagram after.
//
// net.sends / net.recvs count kernel crossings, net.tx_packets /
// net.rx_packets the packets they carried, net.rx_inline the received
// packets handled on the read loop, net.rx_trains the datagrams handed to
// a worker whole, net.gso_refused the refusals.
type UDPTransport struct {
	conn    *net.UDPConn
	handler atomic.Pointer[func(*bufpool.Buf)]
	peers   peerTable

	// set once at construction
	sends, recvs         *obs.Counter
	txPackets, rxPackets *obs.Counter
	rxInline, rxTrains   *obs.Counter
	gsoRefusals          *obs.Counter
	// sendGSO is writeGSO; tests substitute a kernel that refuses.
	sendGSO func(conn *net.UDPConn, frame []byte, segSize int, to *net.UDPAddr) error
	gsoOff  atomic.Bool // a train send was refused: loop from now on

	rx    *dispatcher[rxItem]
	views []bufpool.Buf // per worker, the frame a train's packets are lent in

	closed  atomic.Bool // written under mu, read by every send
	mu      sync.Mutex
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

// NewUDPTransportConfig is NewUDPTransport with a caller-supplied
// metrics registry.
func NewUDPTransportConfig(listen string, cfg UDPConfig) (*UDPTransport, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("ipc: resolve %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("ipc: listen %q: %w", listen, err)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	// Errors are ignored: the kernel clamps to its own limits and the
	// protocol survives loss.
	_ = conn.SetReadBuffer(udpSockBuf)
	_ = conn.SetWriteBuffer(udpSockBuf)
	enableGRO(conn)
	t := &UDPTransport{
		conn:        conn,
		sends:       reg.Counter("net.sends"),
		recvs:       reg.Counter("net.recvs"),
		txPackets:   reg.Counter("net.tx_packets"),
		rxPackets:   reg.Counter("net.rx_packets"),
		rxInline:    reg.Counter("net.rx_inline"),
		rxTrains:    reg.Counter("net.rx_trains"),
		gsoRefusals: reg.Counter("net.gso_refused"),
		sendGSO:     writeGSO,
	}
	t.peers.init()
	workers := dispatchWorkers(16)
	t.views = make([]bufpool.Buf, workers)
	t.rx = newDispatcher(workers, udpQueueDepth, func(w int, batch []rxItem) {
		for i := range batch {
			batch[i].deliver(&t.handler, &t.views[w], putRxBuf)
		}
	})
	return t, nil
}

// Addr returns the transport's bound UDP address.
func (t *UDPTransport) Addr() *net.UDPAddr { return t.conn.LocalAddr().(*net.UDPAddr) }

// AddPeer registers the network address of a logical host.
func (t *UDPTransport) AddPeer(host LogicalHost, addr *net.UDPAddr) {
	t.peers.add(host, addr)
}

// readLoop pulls datagrams off the socket, handles each exchange packet
// and feeds each move packet to the worker its flow belongs to; a buffer
// handed off whole is replaced from rxBufs. It holds a maximal UDP
// datagram because a coalesced train is one; a lone datagram larger than
// a maximal interkernel packet fails the decode, as any non-protocol
// traffic does.
func (t *UDPTransport) readLoop() {
	defer t.reader.Done()
	buf := getRxBuf()
	oob := make([]byte, groOOBSize)
	batch := newRxBatch(t.rx, &t.handler, t.rxInline, t.rxTrains)
	for {
		n, oobn, _, from, err := t.conn.ReadMsgUDPAddrPort(buf, oob)
		if err != nil {
			return // closed
		}
		seg := groSegSize(oob[:oobn])
		if seg <= 0 {
			seg = n
		}
		t.peers.learn(buf[:min(n, seg)], from)
		t.recvs.Add(1)
		packets, whole := batch.addSegments(buf[:n], seg)
		t.rxPackets.Add(int64(packets))
		if whole {
			buf = getRxBuf()
		}
	}
}

// Send implements Transport.
func (t *UDPTransport) Send(to LogicalHost, pkt []byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	addr := t.peers.get(to)
	if addr == nil {
		// Unknown host: broadcast, as the kernel does (§3.1).
		return t.Broadcast(pkt)
	}
	t.sends.Add(1)
	t.txPackets.Add(1)
	_, err := t.conn.WriteToUDP(pkt, addr)
	return err
}

// SendTrain implements TrainSender: one sendmsg, the kernel segmenting.
// A refusal is remembered, and every train after it is declined unsent.
func (t *UDPTransport) SendTrain(to LogicalHost, frame []byte, segSize int) error {
	if t.closed.Load() {
		return ErrClosed
	}
	addr := t.peers.get(to)
	if addr == nil || t.gsoOff.Load() {
		return errNoGSO
	}
	t.sends.Add(1)
	err := t.sendGSO(t.conn, frame, segSize, addr)
	if err == nil {
		t.txPackets.Add(int64((len(frame) + segSize - 1) / segSize))
	} else if gsoRefused(err) {
		t.gsoOff.Store(true)
		t.gsoRefusals.Add(1)
	}
	return err
}

// Broadcast implements Transport. Delivery is best effort per peer: one
// unreachable address must not starve the rest of the mesh (a broadcast
// name lookup still has to reach the peers that can answer), so errors
// are collected rather than aborting the sweep, and the first one is
// returned. The address snapshot is cached in the peer table and reused
// until AddPeer or learning actually changes the peer set.
func (t *UDPTransport) Broadcast(pkt []byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	var first error
	peers := t.peers.snapshot()
	t.sends.Add(int64(len(peers)))
	t.txPackets.Add(int64(len(peers)))
	for _, a := range peers {
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
	start := !t.started && !t.closed.Load()
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
	already := t.closed.Swap(true)
	t.mu.Unlock()
	if already {
		return nil
	}
	err := t.conn.Close()
	t.reader.Wait() // the read loop exits on the closed socket
	t.rx.close()    // the workers drain what it queued
	return err
}

// BatchConfig and NewBatchedUDPTransport are what remains of a second,
// batched UDP transport. They exist only because bench/adapter.go
// compiles against them, so its ipc.batched.* and
// ipc.node.exchange_batched_ns ladder rungs now time UDPTransport. Both
// are deleted once ROADMAP item 1 drops those rungs.
//
// Deprecated: use NewUDPTransport.
type BatchConfig struct{}

// NewBatchedUDPTransport returns NewUDPTransport(listen); see BatchConfig.
//
// Deprecated: use NewUDPTransport.
func NewBatchedUDPTransport(listen string, _ BatchConfig) (*UDPTransport, error) {
	return NewUDPTransport(listen)
}
