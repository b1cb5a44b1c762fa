package ipc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"vkernel/internal/bufpool"
	"vkernel/internal/obs"
	"vkernel/internal/vproto"
)

// Node is one V "kernel" instance: it owns local processes, represents
// remote senders with alien descriptors, and speaks the interkernel
// protocol through a Transport.
//
// Node state is decomposed into independently locked subsystems (see
// tables.go and proctable.go) so that concurrent transactions — Sends from
// many client processes, inbound packets dispatched by a transport worker
// pool, bulk transfers — proceed in parallel instead of funnelling through
// one global mutex. Every packet handler is safe to invoke concurrently.
type Node struct {
	host      LogicalHost
	cfg       NodeConfig
	transport Transport
	// trains is the transport's packet-train path, nil when it has none.
	trains TrainSender

	closed    atomic.Bool
	nextLocal atomic.Uint32
	seq       atomic.Uint32

	procs    procTable
	aliens   alienTable
	pending  opTable[*pendingSend]
	moves    opTable[*moveOp]
	names    nameTable
	movePool sync.Pool // finished transfers, for reuse (see startMove)

	// metrics is the node's registry (NodeConfig.Metrics, or a private
	// one); stats are its ipc.* counters, exchangeNs the Send→Reply
	// latency histogram (recorded only while the registry has timing
	// enabled).
	metrics    *obs.Registry
	stats      nodeCounters
	exchangeNs *obs.Histogram
}

type nameEntry struct {
	pid   Pid
	scope Scope
}

// alien is the descriptor for a remote sending process (§3.2). Its
// mutable fields are guarded by the node's alienTable lock.
type alien struct {
	src      Pid
	seq      uint32
	msg      Message
	awaiting Pid // local process that received the message
	received bool
	replied  bool
	stream   uint32 // op seq of the train a streamed reply rides behind; the next Send acks it
	// shed marks a message refused by receive-queue backpressure. The
	// descriptor stays in the table (evictable) so duplicates of the shed
	// Send keep being answered with the overload Nack instead of being
	// delivered — ErrOverloaded promises the exchange never executed, and
	// a late transport duplicate must not break that.
	shed bool
	// replyFrame is the encoded reply packet, cached so duplicate
	// retransmissions are answered without re-executing the request. The
	// table owns one reference, dropped when the descriptor is removed;
	// senders of the cached frame retain around the transmit.
	replyFrame *bufpool.Buf

	// push is the segment head the sender pushes behind this Send
	// (pushMax), the inline prefix landed at once: pushLen bytes have
	// landed, pushEnd marks its last packet seen, pushOp names the
	// MoveFrom waiting on it. Returned at reply, shed or removal.
	push    *bufpool.Buf
	pushLen uint32
	pushEnd bool
	pushOp  uint32

	// Intrusive LRU links. Only replied descriptors — the evictable ones —
	// are on the list, ordered least- to most-recently touched; guarded by
	// the alienTable lock.
	lruPrev, lruNext *alien
	onLRU            bool

	// env is the delivery envelope for this descriptor's message,
	// embedded so a Send needs no allocation of its own: a sender's next
	// Send reuses its replied descriptor in place, and a new sender's
	// costs one. The envelope's lifecycle (receiver queue → received map
	// → consumed) is never longer than the descriptor's reachability, and
	// its fields are owned by the receiving process, not the table lock.
	env envelope
}

// pendingSend is an outstanding remote Send from this node, in n.pending.
// io (see outstanding) orders segment-data copies — inbound MoveTo data
// landing in the granted segment, MoveFrom reads of it — before the
// exchange result is delivered.
type pendingSend struct {
	outstanding
	dst     Pid
	frame   *bufpool.Buf // the encoded Send, held for retransmission; owned by the sending goroutine, released after the result
	seg     *Segment
	rx      moveRx // inbound MoveTo reassembly; reset per exchange like the fields above
	replyCh chan sendResult
}

// finish delivers the exchange's result; the caller has taken ps out of
// n.pending.
func (ps *pendingSend) finish(res sendResult) {
	ps.timer.Stop()
	ps.barrier()
	ps.replyCh <- res
}

type sendResult struct {
	msg   Message
	err   error
	data  []byte // ReplyWithSegment payload (aliases frame)
	off   uint32
	frame *bufpool.Buf // retained receive frame backing data; receiver releases
}

// NewNode creates a node with the given logical host id on a transport.
func NewNode(host LogicalHost, tr Transport, cfg NodeConfig) *Node {
	n := &Node{
		host:      host,
		cfg:       cfg.withDefaults(),
		transport: tr,
	}
	n.metrics = cfg.Metrics
	if n.metrics == nil {
		n.metrics = obs.New()
	}
	n.stats = newNodeCounters(n.metrics)
	n.exchangeNs = n.metrics.Histogram("ipc.exchange_ns")
	n.trains, _ = tr.(TrainSender)
	n.procs.init()
	n.aliens.init()
	n.pending.init()
	n.moves.init()
	n.names.init()
	// Local ids start at a random point in the 16-bit space, so a node
	// rebooted on the same logical host is unlikely to mint the pids its
	// previous incarnation held (§3.1's "unlikely to be reused soon").
	// Without this, a Send addressed to a dead incarnation's process
	// would silently reach an unrelated process on the new one; with it,
	// the stale pid draws a Nack (ErrNoProcess) and the sender — the
	// volume router in particular — knows to re-resolve.
	n.nextLocal.Store(rand.Uint32())
	tr.SetHandler(n.handlePacket)
	return n
}

// Host returns the node's logical host id.
func (n *Node) Host() LogicalHost { return n.host }

// Metrics returns the node's observability registry (the one from
// NodeConfig.Metrics, or the private registry the node made for
// itself). Embedding servers adopt it so one scrape covers both the
// IPC layer and the service built on it.
func (n *Node) Metrics() *obs.Registry { return n.metrics }

// Close shuts the node down: outstanding operations fail with ErrClosed
// and blocked receivers are released.
func (n *Node) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	for _, ps := range n.pending.drain() {
		ps.finish(sendResult{err: ErrClosed})
	}
	for _, op := range n.moves.drain() {
		op.finish(ErrClosed)
	}
	for _, p := range n.procs.drain() {
		p.close()
	}
	err := n.transport.Close()
	// The transport has quiesced (no handler can run), so the cached
	// reply frames can be returned to the pool; the table's closed flag
	// keeps any straggling replier from caching new ones.
	n.aliens.drainRelease()
	return err
}

// nextSeq issues a fresh nonzero interkernel sequence number.
func (n *Node) nextSeq() uint32 {
	for {
		if s := n.seq.Add(1); s != 0 {
			return s
		}
	}
}

// allocProc mints a locally unique pid and registers a new process under
// it. Local ids come from a wrapping 16-bit counter, so on a long-lived
// node an id can come around again while its original holder is still
// alive; ids still present in the process table are skipped (registration
// is an atomic check-and-insert) rather than silently overwritten, which
// would hijack the live process's messages. When every local id is in use
// the node is out of pids and the caller gets ErrPidsExhausted.
func (n *Node) allocProc(name string) (*Proc, error) {
	// One full wrap of the 16-bit space (plus the skipped zero) proves
	// exhaustion: ids are minted from the shared counter, so even racing
	// allocators never probe the same id twice in one wrap.
	for tries := 0; tries < 1<<16+1; tries++ {
		local := uint16(n.nextLocal.Add(1))
		if local == 0 {
			continue // local id 0 is reserved (vproto.Nil convention)
		}
		pid := vproto.MakePid(n.host, local)
		p := newProc(n, pid, name)
		if n.procs.putIfAbsent(pid, p) {
			return p, nil
		}
	}
	return nil, ErrPidsExhausted
}

// Spawn creates a process on this node and runs body on its own goroutine.
// The body's return ends the process. It fails with ErrPidsExhausted when
// all 2^16-1 local ids name live processes.
func (n *Node) Spawn(name string, body func(p *Proc)) (*Proc, error) {
	p, err := n.allocProc(name)
	if err != nil {
		return nil, err
	}
	go func() {
		defer n.removeProc(p.pid)
		body(p)
	}()
	return p, nil
}

// Attach creates a process handle without spawning a goroutine — the
// caller's goroutine is the process (useful in tests and servers embedded
// in larger programs). Release it with Detach.
func (n *Node) Attach(name string) (*Proc, error) {
	return n.allocProc(name)
}

// Detach removes a process created with Attach.
func (n *Node) Detach(p *Proc) { n.removeProc(p.pid) }

func (n *Node) removeProc(pid Pid) {
	if p, ok := n.procs.remove(pid); ok {
		p.close()
	}
}

// lookupProc returns a local process.
func (n *Node) lookupProc(pid Pid) (*Proc, bool) { return n.procs.get(pid) }

// send encodes into a pooled frame and transmits it to the destination
// host; the frame is recycled as soon as the transport hands it back
// (Send borrows it).
func (n *Node) send(pkt *vproto.Packet, to LogicalHost) {
	f := bufpool.Get(pkt.WireSize())
	if _, err := pkt.EncodeInto(f.Data); err != nil {
		f.Release()
		panic("ipc: " + err.Error())
	}
	_ = n.transport.Send(to, f.Data)
	f.Release()
}

// sendTrain transmits a frame of back-to-back encoded packets (see
// TrainSender): together if the transport can, else one by one — the one
// place a train is unrolled, whichever transport declined it and why.
func (n *Node) sendTrain(to LogicalHost, frame []byte, segSize int) {
	if n.trains != nil && len(frame) > segSize && n.trains.SendTrain(to, frame, segSize) == nil {
		return
	}
	for len(frame) > 0 {
		seg := frame[:min(segSize, len(frame))]
		_ = n.transport.Send(to, seg)
		frame = frame[len(seg):]
	}
}

// handlePacket is the transport upcall. Transports may invoke it from
// many worker goroutines at once; every branch locks only the subsystem
// it touches. Decoding is zero-copy: pkt.Data aliases the pooled frame,
// which the transport recycles when this call returns — handlers that
// need payload bytes past their return (delivered inline segments, reply
// data handed to a blocked sender) retain f and release at last use;
// none of them is a move handler, whose f may be a lent view of several
// packets (see walk).
func (n *Node) handlePacket(f *bufpool.Buf) {
	w := walk{rest: f.Data}
	for pkt, more := &w.pkt, true; more; more = len(w.rest) > 0 {
		if !w.next(n) || pkt.Kind != vproto.KindGetPid && pkt.Dst.Host() != n.host {
			continue // undecodable, or the broadcast fallback reached the wrong node
		}
		switch pkt.Kind {
		case vproto.KindSend:
			n.handleSend(pkt, f)
		case vproto.KindReply:
			n.handleReply(pkt, f)
		case vproto.KindReplyPending:
			n.handleReplyPending(pkt)
		case vproto.KindNack:
			n.handleNack(pkt)
		case vproto.KindMoveToData:
			n.landMoveTo(&w)
		case vproto.KindMoveToAck:
			n.handleMoveAck(pkt)
		case vproto.KindMoveFromReq:
			n.handleMoveFromReq(pkt)
		case vproto.KindMoveFromData:
			if pkt.Flags&vproto.FlagStreamed != 0 {
				n.landPush(&w)
			} else {
				n.landPull(&w)
			}
		case vproto.KindGetPid:
			n.handleGetPid(pkt)
		case vproto.KindGetPidReply:
			n.handleGetPidReply(pkt)
		default:
			n.stats.badPackets.Add(1)
		}
	}
}

// handleSend implements §3.2 delivery with duplicate filtering. The
// check-and-insert against the alien table is atomic under its lock, so
// concurrent workers processing a duplicated Send cannot both deliver it.
func (n *Node) handleSend(pkt *vproto.Packet, f *bufpool.Buf) {
	t := &n.aliens
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	var prev *alien // the sender's descriptor this Send supersedes
	if a, ok := t.m[pkt.Src]; ok {
		switch {
		case pkt.Seq == a.seq:
			n.stats.dupsFiltered.Add(1)
			if a.shed {
				// Duplicate of a message we refused under overload: shed
				// it again (the first Nack may have been lost).
				t.mu.Unlock()
				n.stats.overloadSheds.Add(1)
				n.stats.nacksSent.Add(1)
				n.send(&vproto.Packet{
					Kind:  vproto.KindNack,
					Flags: vproto.FlagOverload,
					Seq:   pkt.Seq,
					Dst:   pkt.Src,
				}, pkt.Src.Host())
				return
			}
			if a.replied {
				if reply := a.replyFrame; reply != nil {
					reply.Retain() // keep valid across the transmit even if evicted now
					t.lruTouchLocked(a)
					t.mu.Unlock()
					n.stats.remoteReplies.Add(1)
					_ = n.transport.Send(pkt.Src.Host(), reply.Data)
					reply.Release()
					return
				}
				t.mu.Unlock()
				return
			}
			t.mu.Unlock()
			n.stats.replyPendingsSent.Add(1)
			n.sendReplyPending(pkt)
			return
		case pkt.Seq-a.seq > 1<<31:
			n.stats.dupsFiltered.Add(1)
			t.mu.Unlock()
			return
		default:
			// Newer message: it supersedes the old descriptor.
			prev = a
			if a.replied && a.stream != 0 {
				defer n.ackStreamedReply(a.stream, a.awaiting)
			}
		}
	}
	// Resolve the receiver before publishing the descriptor, so a
	// concurrently processed duplicate of a Send to a nonexistent process
	// cannot observe an unreplied alien and answer ReplyPending where a
	// Nack is due. (Proc shards are leaf locks; this nesting is safe.)
	rcv, ok := n.procs.get(pkt.Dst)
	if prev != nil && (!ok || !prev.replied) {
		// An unconsumed or unreplied older message is orphaned — its
		// sender has moved on (§3.2 timeout semantics).
		t.removeLocked(prev)
		prev = nil
	}
	if prev == nil && len(t.m) >= n.cfg.AlienDescriptors && !t.evictLocked() {
		t.mu.Unlock()
		n.stats.replyPendingsSent.Add(1)
		n.sendReplyPending(pkt)
		return
	}
	if !ok {
		t.mu.Unlock()
		n.stats.nacksSent.Add(1)
		n.send(&vproto.Packet{Kind: vproto.KindNack, Seq: pkt.Seq, Dst: pkt.Src}, pkt.Src.Host())
		return
	}
	a := prev
	if a == nil {
		a = &alien{}
		t.m[pkt.Src] = a
	} else {
		// The replied exchange is over: reuse its descriptor in place
		// (see cacheReply for why no stale caller can reach it).
		t.lruUnlinkLocked(a)
		a.replyFrame.Release()
		*a = alien{}
	}
	a.src, a.seq, a.msg = pkt.Src, pkt.Seq, pkt.Msg
	a.env = envelope{from: pkt.Src, msg: pkt.Msg, alien: a}
	env := &a.env
	if _, size, access, ok := pkt.Msg.Segment(); ok && access == SegRead && size > uint32(len(pkt.Data)) {
		a.push = bufpool.Get(int(min(size, pushMax)))
		a.pushLen = uint32(copy(a.push.Data, pkt.Data))
	}
	if len(pkt.Data) > 0 {
		// The inline segment prefix aliases the receive frame; pin the
		// frame until the exchange consumes it (zero-copy delivery).
		env.inline = pkt.Data
		env.frame = f.Retain()
	}
	t.mu.Unlock()
	switch rcv.enqueue(env) {
	case enqOK:
	case enqClosed:
		// Drop the descriptor so the sender's retransmission is Nacked
		// rather than answered reply-pending.
		env.releaseFrame()
		n.aliens.drop(a)
	case enqOverflow:
		// Backpressure: shed the message and tell the sender it may
		// retry (§3.2 Nack machinery with the overload flag). The
		// descriptor is kept, marked shed and evictable, so a transport
		// duplicate of this Send is shed too rather than delivered after
		// the sender was already told the exchange never happened. A
		// retry is a new Send with a higher seq and replaces it.
		env.releaseFrame()
		n.aliens.markShed(a)
		n.stats.overloadSheds.Add(1)
		n.stats.nacksSent.Add(1)
		n.send(&vproto.Packet{
			Kind:  vproto.KindNack,
			Flags: vproto.FlagOverload,
			Seq:   pkt.Seq,
			Dst:   pkt.Src,
		}, pkt.Src.Host())
	}
}

func (n *Node) sendReplyPending(pkt *vproto.Packet) {
	n.send(&vproto.Packet{
		Kind: vproto.KindReplyPending,
		Seq:  pkt.Seq,
		Src:  pkt.Dst,
		Dst:  pkt.Src,
	}, pkt.Src.Host())
}

// handleReply completes an outstanding remote Send. Reply data is not
// copied here: the receive frame is retained and handed to the blocked
// sender, which copies straight into its granted segment and releases.
// A streamed reply (vproto.FlagStreamed: stream seq Offset, Count bytes)
// may overtake its train; it is then held, and the train's last packet
// delivers it (landMoveTo). Both decide under the exchange's rx
// lock, so exactly one of them delivers.
func (n *Node) handleReply(pkt *vproto.Packet, f *bufpool.Buf) {
	t := &n.pending
	t.mu.Lock()
	ps, ok := t.liveLocked(pkt.Seq, pkt.Dst)
	if !ok {
		t.mu.Unlock()
		n.stats.dupsFiltered.Add(1)
		return
	}
	if pkt.Flags&vproto.FlagStreamed != 0 {
		rx := &ps.rx
		rx.mu.Lock()
		held := rx.seq != pkt.Offset || rx.expected < pkt.Count
		if held && rx.heldSeq == 0 { // else a retransmitted copy is held already
			rx.held, rx.heldSeq = pkt.Msg, pkt.Offset
			n.stats.repliesHeld.Add(1)
		}
		rx.mu.Unlock()
		if held {
			t.mu.Unlock()
			return
		}
	}
	t.removeLocked(ps)
	t.mu.Unlock()
	res := sendResult{msg: pkt.Msg, data: pkt.Data, off: pkt.Offset}
	if len(pkt.Data) > 0 {
		res.frame = f.Retain()
	}
	ps.finish(res)
}

// handleReplyPending resets the retransmission budget (§3.2).
func (n *Node) handleReplyPending(pkt *vproto.Packet) {
	n.stats.replyPendingsSeen.Add(1)
	t := &n.pending
	t.mu.Lock()
	defer t.mu.Unlock()
	if ps, ok := t.liveLocked(pkt.Seq, pkt.Dst); ok {
		ps.retries = 0
	}
}

// handleNack fails an outstanding Send: ErrNoProcess for a dead
// destination, ErrOverloaded (retryable) when the receiver shed the
// message under queue pressure.
func (n *Node) handleNack(pkt *vproto.Packet) {
	ps, ok := n.pending.take(pkt.Seq, pkt.Dst)
	if !ok {
		return
	}
	err := ErrNoProcess
	if pkt.Flags&vproto.FlagOverload != 0 {
		err = ErrOverloaded
	}
	ps.finish(sendResult{err: err})
}

// retransmit drives the §3.2 timeout machinery for one pending Send.
func (n *Node) retransmit(ps *pendingSend) {
	t := &n.pending
	t.mu.Lock()
	if t.closed || t.m[ps.seq] != ps || ps.done {
		t.mu.Unlock()
		return
	}
	ps.retries++
	if ps.retries > n.cfg.Retries {
		t.removeLocked(ps)
		t.mu.Unlock()
		ps.finish(sendResult{err: ErrTimeout})
		return
	}
	// Pin the encoded frame across the transmit, and snapshot the fields
	// used after the unlock: the owner releases the frame — and, since
	// descriptors are reused, may re-initialize the whole pendingSend for
	// its next exchange — as soon as this one completes, which can race
	// everything below.
	f := ps.frame.Retain()
	dst := ps.dst
	timer := ps.timer
	t.mu.Unlock()
	n.stats.retransmits.Add(1)
	_ = n.transport.Send(dst.Host(), f.Data)
	f.Release()
	timer.Reset(n.cfg.RetransmitTimeout)
}

func (n *Node) String() string {
	return fmt.Sprintf("node(%d)", n.host)
}
