package ipc

import (
	"sync"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/vproto"
)

// envelope is a delivered message waiting in a receiver's FCFS queue.
type envelope struct {
	from   Pid
	msg    Message
	inline []byte       // segment prefix that travelled with a remote Send (aliases frame)
	frame  *bufpool.Buf // pinned receive frame backing inline; nil when no inline data
	local  *sendCtx     // local sender context (nil for remote senders)
	alien  *alien       // remote sender descriptor (nil for local senders)
}

// grant checks that the envelope's sender granted access over the n
// bytes at off of its segment (§2.1): ErrNoAccess without the access,
// ErrBadAddress for a range past the segment's end. For a local sender it
// returns those bytes of the segment itself; a remote sender's segment is
// reached over the wire, so it returns nil.
func (env *envelope) grant(access byte, off uint32, n int) ([]byte, error) {
	var seg []byte
	var size uint64
	var granted byte
	if env.local != nil {
		if s := env.local.seg; s != nil {
			seg, size, granted = s.Data, uint64(len(s.Data)), s.Access
		}
	} else if _, sz, acc, ok := env.alien.msg.Segment(); ok {
		size, granted = uint64(sz), acc
	}
	if granted&access == 0 {
		return nil, ErrNoAccess
	}
	if uint64(off)+uint64(n) > size {
		return nil, ErrBadAddress
	}
	if seg == nil {
		return nil, nil
	}
	return seg[off:][:n], nil
}

// releaseFrame returns the pinned receive frame, if any. Called exactly
// once per envelope, when the exchange is consumed (reply), superseded,
// or dropped (shed, process death).
func (env *envelope) releaseFrame() {
	env.frame.Release()
	env.frame = nil
	env.inline = nil
}

// enqueue results.
type enqStatus int

const (
	enqOK       enqStatus = iota
	enqClosed             // receiver is gone
	enqOverflow           // FCFS queue at its configured bound; message shed
)

// sendCtx is a blocked local sender.
type sendCtx struct {
	from    Pid
	seg     *Segment
	replyCh chan sendResult
}

// Proc is one V process: a goroutine-owned handle for the IPC primitives.
type Proc struct {
	node *Node
	pid  Pid
	name string

	mu         sync.Mutex
	ready      sync.Cond // on mu: signalled per queued envelope, broadcast on close
	waiters    int       // receivers blocked on ready
	queue      []*envelope
	queueLimit int // max queued envelopes no blocked receiver will take; 0 = unbounded
	received   map[Pid]*envelope
	closed     bool

	// sendRes is the per-process exchange-result channel, reused across
	// Sends: a process has at most one outstanding Send (the primitive
	// blocks its goroutine), so a single one-slot channel serves them all
	// without a per-exchange allocation. The single-delivery discipline
	// around pendingSend (take/drain/timeout mark done exactly once)
	// guarantees no stale result can linger into the next Send.
	sendRes chan sendResult

	// resendTimer is the per-process retransmit timer, reused across
	// Sends for the same at-most-one-outstanding reason as sendRes: a
	// fresh time.AfterFunc per Send costs a runtime timer plus a closure
	// allocation on every remote exchange. resendPS names the Send the
	// next fire should drive; both are guarded by resendMu. A stale fire
	// — the callback racing a Stop/re-arm and reading the next Send's
	// pendingSend — at worst retransmits that Send early, which the
	// duplicate filter on the receiver absorbs; retransmit itself
	// re-checks liveness under the pending-table lock, so a fire for a
	// completed exchange is a no-op.
	resendMu    sync.Mutex
	resendTimer *time.Timer
	resendPS    *pendingSend

	// psend is the per-process exchange descriptor, reused across Sends
	// for the same at-most-one-outstanding reason as sendRes and
	// resendTimer: a fresh heap pendingSend per remote Send is an
	// allocation on the page-exchange fast path. Its per-exchange fields
	// are rewritten only inside n.pending.add's critical section, and
	// concurrent consumers (retransmit, reply dispatch, move handlers)
	// only touch a descriptor they validated as live under that same
	// lock — so no straggler from a finished exchange can observe the
	// next exchange's re-initialization. A stale retransmit-timer fire
	// that validates after the descriptor was re-registered retransmits
	// the new exchange early, which the receiver's duplicate filter
	// absorbs.
	psend pendingSend
}

func newProc(n *Node, pid Pid, name string) *Proc {
	p := &Proc{
		node:       n,
		pid:        pid,
		name:       name,
		queueLimit: n.cfg.ReceiveQueueDepth,
		received:   make(map[Pid]*envelope),
		sendRes:    make(chan sendResult, 1),
	}
	p.ready.L = &p.mu
	p.psend.owner = pid
	p.psend.replyCh = p.sendRes
	return p
}

// SetQueueLimit overrides the node-wide FCFS receive-queue bound for this
// process (0 disables the bound). Sends past the bound are shed with
// ErrOverloaded — see NodeConfig.ReceiveQueueDepth.
func (p *Proc) SetQueueLimit(n int) {
	p.mu.Lock()
	p.queueLimit = n
	p.mu.Unlock()
}

// armResend points the process's reusable retransmit timer at ps and
// arms it, creating the timer on the first remote Send. It returns the
// timer so completion paths can Stop it through ps.timer as before.
func (p *Proc) armResend(ps *pendingSend) *time.Timer {
	rto := p.node.cfg.RetransmitTimeout
	p.resendMu.Lock()
	p.resendPS = ps
	if p.resendTimer == nil {
		p.resendTimer = time.AfterFunc(rto, p.resendFire)
	} else {
		p.resendTimer.Reset(rto)
	}
	t := p.resendTimer
	p.resendMu.Unlock()
	return t
}

func (p *Proc) resendFire() {
	p.resendMu.Lock()
	ps := p.resendPS
	p.resendMu.Unlock()
	if ps != nil {
		p.node.retransmit(ps)
	}
}

// Pid returns the process identifier.
func (p *Proc) Pid() Pid { return p.pid }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Node returns the owning node.
func (p *Proc) Node() *Node { return p.node }

// close releases every blocked receiver, fails queued local senders, and
// orphans remote senders' descriptors so their retransmissions are
// Nacked (§3.2 process-death semantics). Pinned receive frames of
// undelivered and unreplied exchanges go back to the pool.
func (p *Proc) close() {
	p.resendMu.Lock()
	if p.resendTimer != nil {
		p.resendTimer.Stop()
	}
	p.resendPS = nil
	p.resendMu.Unlock()
	p.mu.Lock()
	p.closed = true
	q := p.queue
	p.queue = nil
	rcvd := make([]*envelope, 0, len(p.received))
	for from, env := range p.received {
		delete(p.received, from)
		rcvd = append(rcvd, env)
	}
	p.mu.Unlock()
	p.ready.Broadcast()
	for _, env := range q {
		p.settle(env)
	}
	for _, env := range rcvd {
		env.releaseFrame()
	}
	// Received-but-unreplied exchanges can never complete now; without
	// their descriptors the senders' retransmissions turn into Nacks
	// instead of being held reply-pending forever.
	p.node.aliens.dropAwaiting(p.pid)
}

// settle ends an exchange the dead process p can never reply to: a local
// sender fails with ErrNoProcess, a remote sender's descriptor is dropped
// so its retransmission is Nacked instead of answered reply-pending
// forever (§3.2), and the pinned frame goes back to the pool.
func (p *Proc) settle(env *envelope) {
	if env.local != nil {
		env.local.replyCh <- sendResult{err: ErrNoProcess}
	} else if env.alien != nil {
		p.node.aliens.drop(env.alien)
	}
	env.releaseFrame()
}

// enqueue delivers an envelope, waking one blocked receiver if any. The
// caller handles non-OK statuses (sender notification, descriptor and
// frame cleanup) — enqueue itself takes ownership only on enqOK.
func (p *Proc) enqueue(env *envelope) enqStatus {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return enqClosed
	}
	if p.queueLimit > 0 && len(p.queue) >= p.queueLimit+p.waiters {
		p.mu.Unlock()
		return enqOverflow
	}
	p.queue = append(p.queue, env)
	p.mu.Unlock()
	p.ready.Signal()
	return enqOK
}

// Send sends msg to dst and blocks until the receiver replies; the reply
// overwrites *msg (§2.1). seg, if non-nil, is the segment the message
// grants; for remote destinations with read access, its first
// vproto.MaxData bytes travel inside the Send packet (§3.4), and a longer
// read-only segment's first 64 KB are pushed right behind it (pushMax).
func (p *Proc) Send(msg *Message, dst Pid, seg *Segment) error {
	if seg != nil {
		msg.SetSegment(0, uint32(len(seg.Data)), seg.Access)
	}
	if dst.Host() != p.node.host {
		return p.remoteSend(msg, dst, seg)
	}
	target, ok := p.node.lookupProc(dst)
	if !ok {
		return ErrNoProcess
	}
	ctx := &sendCtx{from: p.pid, seg: seg, replyCh: p.sendRes}
	switch target.enqueue(&envelope{from: p.pid, msg: *msg, local: ctx}) {
	case enqClosed:
		return ErrNoProcess
	case enqOverflow:
		p.node.stats.overloadSheds.Add(1)
		return ErrOverloaded
	}
	res := <-ctx.replyCh
	if res.err != nil {
		return res.err
	}
	*msg = res.msg
	return nil
}

// remoteSend implements the non-local Send path (§3.2). The Send packet
// is encoded once into a pooled frame that lives for the whole exchange
// (retransmissions pin it); the inline segment prefix is copied straight
// from the granted segment into the frame, with no intermediate buffer.
// A longer read-only segment is pushed once, behind the first transmit
// (pushMax), the Send heading the push's first train frame when it is as
// long as a push packet; a retransmission resends the Send alone, the
// receiver pulls the rest.
func (p *Proc) remoteSend(msg *Message, dst Pid, seg *Segment) error {
	n := p.node
	pkt := &vproto.Packet{
		Kind: vproto.KindSend,
		Seq:  n.nextSeq(),
		Src:  p.pid,
		Dst:  dst,
		Msg:  *msg,
	}
	if seg != nil && seg.Access&SegRead != 0 {
		m := min(len(seg.Data), vproto.MaxData)
		pkt.Data = seg.Data[:m] // borrowed for the encode below only
		pkt.Count = uint32(m)
	}
	f := bufpool.Get(pkt.WireSize())
	if _, err := pkt.EncodeInto(f.Data); err != nil {
		f.Release()
		return err
	}
	// The process's reusable exchange descriptor (see the psend field
	// comment). Its per-exchange fields are (re)written inside add's
	// critical section: a stale timer fire validates the descriptor by
	// reading ps.seq under the same lock, so initializing outside it
	// would race.
	ps := &p.psend
	if err := n.pending.add(ps, func() *time.Timer {
		ps.seq = pkt.Seq
		ps.dst = dst
		ps.frame = f
		ps.seg = seg
		ps.retries = 0
		ps.done = false
		ps.rx.seq, ps.rx.expected, ps.rx.heldSeq = 0, 0, 0
		return p.armResend(ps)
	}); err != nil {
		f.Release()
		return err
	}
	n.stats.remoteSends.Add(1)

	t0 := n.metrics.Start()
	push := seg != nil && seg.Access == SegRead && len(seg.Data) > vproto.MaxData
	var head []byte // the Send, if it heads its push's first train frame
	if push && len(f.Data) == vproto.HeaderSize+vproto.MessageSize+n.cfg.ChunkSize {
		head = f.Data
	} else {
		_ = n.transport.Send(dst.Host(), f.Data)
	}
	if push {
		data := seg.Data[:min(len(seg.Data), pushMax)] // see pushMax
		n.streamTrain(vproto.Packet{Kind: vproto.KindMoveFromData, Flags: vproto.FlagStreamed, Seq: pkt.Seq,
			Src: p.pid, Dst: dst, Count: uint32(len(data))}, [][]byte{data}, 0, head)
	}
	res := <-ps.replyCh
	f.Release() // exchange over; in-flight retransmits hold their own refs
	if res.err == nil {
		n.exchangeNs.Since(t0)
	}
	// ReplyWithSegment data lands in the granted segment straight from
	// the retained receive frame.
	if res.err == nil && len(res.data) > 0 && seg != nil && seg.Access&SegWrite != 0 {
		if uint64(res.off)+uint64(len(res.data)) <= uint64(len(seg.Data)) {
			copy(seg.Data[res.off:], res.data)
		}
	}
	res.frame.Release()
	if res.err != nil {
		return res.err
	}
	*msg = res.msg
	return nil
}

// Receive blocks until a message arrives (§2.1). Any number of
// goroutines may Receive on one process, the way a server's workers
// share its queue: each message goes to exactly one of them, in FCFS
// order, and any of them may answer any received exchange.
func (p *Proc) Receive() (Message, Pid, error) {
	msg, src, _, err := p.receive(nil)
	return msg, src, err
}

// ReceiveWithSegment is Receive but also transfers up to len(buf) bytes of
// a read-access segment declared in the arriving message (the inline
// prefix for remote senders, a direct copy for local ones); it returns the
// transferred byte count (§2.1).
func (p *Proc) ReceiveWithSegment(buf []byte) (Message, Pid, int, error) {
	return p.receive(buf)
}

func (p *Proc) receive(buf []byte) (Message, Pid, int, error) {
	p.mu.Lock()
	for len(p.queue) == 0 && !p.closed {
		p.waiters++
		p.ready.Wait()
		p.waiters--
	}
	if p.closed {
		p.mu.Unlock()
		return Message{}, vproto.Nil, 0, ErrClosed
	}
	// Pop by shifting, so the queue keeps its backing array and the next
	// enqueue does not allocate one.
	env := p.queue[0]
	n := copy(p.queue, p.queue[1:])
	p.queue[n] = nil
	p.queue = p.queue[:n]
	p.mu.Unlock()
	// Copy the segment prefix while the envelope is this receiver's alone:
	// once it is published in p.received, a concurrent close() may release
	// its frame.
	count := 0
	if buf != nil {
		count = p.consumeSegment(env, buf)
	}
	p.mu.Lock()
	if p.closed {
		// The process died between the handoff and here; the exchange can
		// never be replied.
		p.mu.Unlock()
		p.settle(env)
		return Message{}, vproto.Nil, 0, ErrClosed
	}
	old := p.received[env.from]
	p.received[env.from] = env
	p.mu.Unlock()
	if old != nil {
		// A newer message from the same sender superseded an exchange
		// that was never replied; the orphaned envelope's frame is done.
		old.releaseFrame()
	}
	if env.alien != nil {
		p.node.aliens.markReceived(env.alien, p.pid)
	}
	return env.msg, env.from, count, nil
}

func (p *Proc) consumeSegment(env *envelope, buf []byte) int {
	_, size, access, ok := env.msg.Segment()
	if !ok || access&SegRead == 0 {
		return 0
	}
	if env.alien != nil {
		return copy(buf, env.inline)
	}
	n := int(size)
	if n > len(buf) {
		n = len(buf)
	}
	if env.local.seg == nil {
		return 0
	}
	return copy(buf[:n], env.local.seg.Data)
}

// Reply sends the reply to dst, which must be awaiting one from this
// process; the replier does not block (§2.1).
func (p *Proc) Reply(msg *Message, dst Pid) error {
	return p.reply(msg, dst, 0, nil)
}

// ReplyWithSegment replies and carries data into the destination's granted
// write segment at destOff (§2.1). Up to one packet of data travels in the
// reply packet. A remote destination gets more as a MoveTo stream with the
// reply right behind it, held by its kernel until the last byte lands, so
// its Send need not wait for the stream's ack; the replier does, as MoveTo
// does. A refused grant sends nothing and leaves the destination awaiting.
func (p *Proc) ReplyWithSegment(msg *Message, dst Pid, destOff uint32, data []byte) error {
	return p.reply(msg, dst, destOff, [][]byte{data})
}

// ReplyWithSegmentVec is ReplyWithSegment over a gather list: the
// concatenation of srcs lands at destOff, as MoveToVec moves it.
func (p *Proc) ReplyWithSegmentVec(msg *Message, dst Pid, destOff uint32, srcs ...[]byte) error {
	return p.reply(msg, dst, destOff, srcs)
}

func (p *Proc) reply(msg *Message, dst Pid, destOff uint32, vec [][]byte) error {
	p.mu.Lock()
	env, ok := p.received[dst]
	p.mu.Unlock()
	if !ok {
		return ErrNotAwaitingReply
	}
	// Validate the data grant before consuming the exchange: a failed
	// Reply must leave the sender awaiting, so the replier can answer
	// again (say, with an error-status message) instead of stranding the
	// sender in reply-pending limbo with its descriptor pinned.
	var seg []byte
	total := vecLen(vec)
	if total > 0 {
		var err error
		if seg, err = env.grant(SegWrite, destOff, total); err != nil {
			return err
		}
	}
	// Commit: consume the exchange, re-checking it is still ours — a
	// concurrent Reply to the same sender may have won the race.
	p.mu.Lock()
	if p.received[dst] != env {
		p.mu.Unlock()
		return ErrNotAwaitingReply
	}
	delete(p.received, dst)
	p.mu.Unlock()
	env.releaseFrame() // the inline prefix can't be consumed anymore
	if env.local != nil {
		gatherCopy(seg, vec, 0)
		env.local.replyCh <- sendResult{msg: *msg}
		return nil
	}
	return p.node.remoteReply(p, msg, env.alien, destOff, vec, total)
}

// remoteReply transmits and caches the reply packet (§3.2, §3.4). The
// caller's data is borrowed only for the encode — copied exactly once,
// into the pooled reply frame, or into the frames of the stream that
// precedes a reply marked FlagStreamed — so repliers can hand segments
// of long-lived structures (a server's block cache) without defensive
// copies. The frame itself stays alive in the reply cache until the
// descriptor is evicted. reply has already checked the data's grant.
func (n *Node) remoteReply(p *Proc, msg *Message, a *alien, destOff uint32, vec [][]byte, total int) error {
	pkt := vproto.Packet{
		Kind:   vproto.KindReply,
		Seq:    a.seq,
		Src:    p.pid,
		Dst:    a.src,
		Offset: destOff,
		Count:  uint32(total),
		Msg:    *msg,
	}
	var op *moveOp
	var stream uint32
	inline := total
	if total > vproto.MaxData {
		var err error
		if op, err = n.startMove(moveTo, p.pid, a.src, destOff, a, vec, uint32(total), true); err != nil {
			return err
		}
		stream = op.seq
		pkt.Flags, pkt.Offset, inline = vproto.FlagStreamed, stream, 0 // Offset names the stream
	}
	const overhead = vproto.HeaderSize + vproto.MessageSize
	f := bufpool.Get(overhead + inline)
	gatherCopy(f.Data[overhead:], vec, 0)
	if _, err := pkt.EncodePrefilled(f.Data, inline); err != nil {
		f.Release()
		panic("ipc: " + err.Error())
	}
	// Once cacheReply publishes the reply, the sender's next Send may
	// reuse the descriptor: the destination is read before.
	host := a.src.Host()
	n.aliens.cacheReply(a, f, stream)
	n.stats.remoteReplies.Add(1)
	_ = n.transport.Send(host, f.Data)
	f.Release()
	if op == nil {
		return nil
	}
	return n.awaitMove(op)
}
