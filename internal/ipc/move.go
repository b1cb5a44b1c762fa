package ipc

import (
	"sync"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/vproto"
)

// Bulk data transfer (§3.3): back-to-back maximally-sized data packets, a
// single completion acknowledgement, and retransmission that resumes from
// the last correctly received byte.
//
// The receivers are go-back-N, as in the paper: a data packet is accepted
// only at the offset the receiver expects, anything else is discarded
// (ipc.move_ooo_drops) and the train's last packet then asks the mover to
// resume from the gap (ipc.move_resumes). That is cheap exactly as long
// as a train arrives in the order it was sent, which the Transport
// contract's per-flow ordering provides: one train is one (src pid, dst
// pid) flow, so on a network that does not reorder both counters stay 0.
//
// Every move packet names the exchange it belongs to: the mover stamps
// the seq of the Send it is serving (wordMoveSend) and the granting node
// looks the pending Send up by it, so a late packet of an earlier
// exchange between the same two processes cannot touch the segment of
// the current one; a pushed packet (pushMax) carries the Send's own seq.
//
// Concurrency: outgoing operations live in the node's n.moves opTable
// (lifecycle under its lock, buffer writes under the per-op lock), and
// share the outstanding lifecycle with remote Sends; an inbound MoveTo
// stream reassembles under its exchange's own lock (pendingSend.rx) so
// transfers from different peers land in their granted segments in
// parallel, a push under the alien table's. A train frame's packets of
// one stream land as one run (walk.more): one lookup, pin and lock hold.

// moveKind is a transfer's direction, spelled as the segment access it
// needs from the granting process (§2.1).
type moveKind byte

const (
	moveTo   moveKind = SegWrite
	moveFrom moveKind = SegRead
)

type moveOp struct {
	outstanding
	kind moveKind
	peer Pid
	// vec is the transfer's slice list: for moveTo the gather list of
	// source slices streamed in order, for moveFrom the scatter list of
	// destination slices filled in order. io (see outstanding) pins it.
	vec     [][]byte
	size    uint32 // total transfer size in bytes
	base    uint32 // offset within the peer's granted segment
	sendSeq uint32 // seq of the peer's Send this transfer serves
	reply   bool   // moveTo: the train a streamed reply follows (its packets carry FlagStreamed)
	ackCh   chan error

	// mu guards got and, for moveFrom, writes into vec.
	mu  sync.Mutex
	got uint32 // moveFrom: contiguously received bytes
}

// finish delivers the transfer's result; the caller has taken op out of
// n.moves.
func (op *moveOp) finish(err error) {
	op.timer.Stop()
	op.barrier()
	op.ackCh <- err
}

// startMove registers and starts a remote transfer between owner's slice
// list vec and the segment peer granted in its Send, a's message, at
// offset base (a streamed reply's train if reply); awaitMove collects the
// result; a pull inside the span the Send pushed is served from the push
// (pullPushed). Ops are pooled per node with their result channel and timer.
// As with psend, fields are rewritten inside add's critical section, so a
// stale timer fire only resends early.
func (n *Node) startMove(kind moveKind, owner, peer Pid, base uint32, a *alien, vec [][]byte, size uint32, reply bool) (*moveOp, error) {
	sendSeq := a.seq
	op, _ := n.movePool.Get().(*moveOp)
	if op == nil {
		op = &moveOp{ackCh: make(chan error, 1)}
	}
	err := n.moves.add(op, func() *time.Timer {
		op.seq, op.owner, op.retries, op.done = n.nextSeq(), owner, 0, false
		op.kind, op.peer, op.size, op.base, op.sendSeq, op.got, op.reply = kind, peer, size, base, sendSeq, 0, reply
		op.vec = append(op.vec[:0], vec...)
		if op.timer == nil {
			op.timer = time.AfterFunc(n.cfg.RetransmitTimeout, func() { n.moveTimeout(op) })
		} else {
			op.timer.Reset(n.cfg.RetransmitTimeout)
		}
		return op.timer
	})
	if err != nil {
		n.movePool.Put(op)
		return nil, err
	}
	n.stats.moveOps.Add(1)
	n.stats.moveBytes.Add(int64(size))
	if kind == moveTo {
		n.streamMoveTo(op, 0)
	} else if !n.pullPushed(op, a) {
		n.sendMoveFromReq(op, 0)
	}
	return op, nil
}

// awaitMove returns op's result once it completes, and op to the pool.
func (n *Node) awaitMove(op *moveOp) error {
	err := <-op.ackCh
	clear(op.vec) // the pool must not pin the caller's buffers
	n.movePool.Put(op)
	return err
}

// moveRx reassembles the inbound MoveTo streams of one exchange, one at
// a time (the mover blocks on each); mu serializes the contiguity check
// and the copy into the granted segment. It lives in the pendingSend, so
// it goes when the exchange does. Once a stream completes, expected stays
// at its size, which is how a retransmitted last packet (the ack was
// lost) is recognised and re-acked; a streamed reply's train may outlive
// the exchange, see landMoveTo. A reply that overtakes its stream
// is held here (handleReply).
type moveRx struct {
	mu       sync.Mutex
	seq      uint32 // the stream being reassembled (the mover's op seq); 0 = none yet
	expected uint32
	held     Message // a held reply's message
	heldSeq  uint32  // the stream the held reply covers; 0 = none held
}

// MoveTo copies data into the granted segment of dst at destOff. dst must
// be awaiting a reply from this process and must have granted write access
// (§2.1). The data is borrowed for the duration of the call only: MoveTo
// blocks until the transfer completes (or fails), after which the kernel
// holds no reference to it — so callers may lend slices of long-lived
// structures (pooled cache blocks) as long as they keep them alive across
// the call.
func (p *Proc) MoveTo(dst Pid, destOff uint32, data []byte) error {
	return p.MoveToVec(dst, destOff, data)
}

// MoveToVec is MoveTo over a gather list: the concatenation of srcs is
// moved into the granted segment of dst at destOff. Data packets are
// assembled straight from the source slices into pooled wire frames, so
// a bulk read served from several cached blocks needs no intermediate
// staging copy. Borrowing rules are those of MoveTo.
func (p *Proc) MoveToVec(dst Pid, destOff uint32, srcs ...[]byte) error {
	return p.move(moveTo, dst, destOff, srcs)
}

// MoveFrom copies len(buf) bytes from the granted segment of src at
// srcOff into buf. src must be awaiting a reply from this process and must
// have granted read access (§2.1).
func (p *Proc) MoveFrom(src Pid, srcOff uint32, buf []byte) error {
	return p.MoveFromVec(src, srcOff, buf)
}

// MoveFromVec is MoveFrom over a scatter list: the pulled bytes land in
// the destination slices in order, directly off the wire — a bulk write
// landing in several block-aligned cache buffers needs no intermediate
// staging copy. The slices are borrowed for the duration of the call
// only (MoveFromVec blocks until the transfer completes or fails), and
// the §3.3 resume semantics are unchanged: after packet loss the puller
// re-requests from the last contiguously received byte, so every slice
// is filled exactly once, in order.
func (p *Proc) MoveFromVec(src Pid, srcOff uint32, dsts ...[]byte) error {
	return p.move(moveFrom, src, srcOff, dsts)
}

// move runs one bulk transfer between p's slice list vec and the segment
// peer granted, at offset off: a copy for a local peer, a remote transfer
// driven to completion otherwise.
func (p *Proc) move(kind moveKind, peer Pid, off uint32, vec [][]byte) error {
	total := vecLen(vec)
	p.mu.Lock()
	env, ok := p.received[peer]
	p.mu.Unlock()
	if !ok {
		return ErrNotAwaitingReply
	}
	seg, err := env.grant(byte(kind), off, total)
	if err != nil {
		return err
	}
	if env.local != nil {
		if kind == moveTo {
			gatherCopy(seg, vec, 0)
		} else {
			scatterCopy(vec, 0, seg)
		}
		return nil
	}
	if total == 0 {
		return nil
	}
	op, err := p.node.startMove(kind, p.pid, peer, off, env.alien, vec, uint32(total), false)
	if err != nil {
		return err
	}
	return p.node.awaitMove(op)
}

// vecLen is the length of a slice list's concatenation.
func vecLen(vec [][]byte) int {
	total := 0
	for _, b := range vec {
		total += len(b)
	}
	return total
}

// gatherCopy fills dst from the concatenation of vec starting at byte
// offset off (off + len(dst) must lie within the gather list).
func gatherCopy(dst []byte, vec [][]byte, off uint32) {
	skip := int(off)
	for _, s := range vec {
		if skip >= len(s) {
			skip -= len(s)
			continue
		}
		n := copy(dst, s[skip:])
		dst = dst[n:]
		skip = 0
		if len(dst) == 0 {
			return
		}
	}
}

// scatterCopy is gatherCopy's inverse: it spreads src across the scatter
// list starting at byte offset off within the list's concatenation.
func scatterCopy(vec [][]byte, off uint32, src []byte) {
	skip := int(off)
	for _, d := range vec {
		if skip >= len(d) {
			skip -= len(d)
			continue
		}
		n := copy(d[skip:], src)
		src = src[n:]
		skip = 0
		if len(src) == 0 {
			return
		}
	}
}

// streamTrain transmits the data packets of one transfer from byte offset
// from. pkt carries what they all share (kind, seq, pids, Count = the
// transfer size, message words); vec is the source gather list. Each
// packet is assembled once, source bytes gathered straight into place and
// the header written around them (EncodePrefilled) — but not into a frame
// of its own: as many equal-size segments as one train frame may hold are
// laid back to back in one pooled frame and handed to the transport
// together, so a transport with the TrainSender capability crosses into
// the kernel once per frame instead of once per packet. head, if not
// empty, is an encoded packet exactly one segment long (a pushing Send,
// see remoteSend) copied in as the first frame's leading segment.
func (n *Node) streamTrain(pkt vproto.Packet, vec [][]byte, from uint32, head []byte) {
	const overhead = vproto.HeaderSize + vproto.MessageSize
	chunk := uint32(n.cfg.ChunkSize)
	segSize := overhead + int(chunk)
	perFrame := uint32(min(trainMaxSegs, trainMaxBytes/segSize))
	for off := from; off < pkt.Count; {
		segs := min((pkt.Count-off-1)/chunk+1, perFrame-uint32(len(head)/segSize))
		f := bufpool.Get(len(head) + int(segs)*segSize)
		at := copy(f.Data, head)
		head = nil
		for ; segs > 0; segs-- {
			m := min(chunk, pkt.Count-off)
			pkt.Offset, pkt.Flags = off, pkt.Flags&^vproto.FlagLast
			if off+m == pkt.Count {
				pkt.Flags |= vproto.FlagLast
			}
			gatherCopy(f.Data[at+overhead:at+overhead+int(m)], vec, off)
			size, err := pkt.EncodePrefilled(f.Data[at:], int(m))
			if err != nil {
				f.Release()
				panic("ipc: " + err.Error())
			}
			at += size
			off += m
		}
		n.sendTrain(pkt.Dst.Host(), f.Data[:at], segSize)
		f.Release()
	}
}

// streamMoveTo (re)transmits an outgoing MoveTo from offset from.
func (n *Node) streamMoveTo(op *moveOp, from uint32) {
	hdr := vproto.Packet{
		Kind:  vproto.KindMoveToData,
		Seq:   op.seq,
		Src:   op.owner,
		Dst:   op.peer,
		Count: op.size,
	}
	if op.reply {
		hdr.Flags = vproto.FlagStreamed
	}
	hdr.Msg.SetWord(wordMoveBase, op.base)
	hdr.Msg.SetWord(wordMoveSend, op.sendSeq)
	n.streamTrain(hdr, op.vec, from, nil)
}

// sendMoveFromReq requests the remainder of a pull transfer, starting at
// the got bytes already received contiguously.
func (n *Node) sendMoveFromReq(op *moveOp, got uint32) {
	pkt := &vproto.Packet{
		Kind:   vproto.KindMoveFromReq,
		Seq:    op.seq,
		Src:    op.owner,
		Dst:    op.peer,
		Offset: got,
		Count:  op.size,
	}
	pkt.Msg.SetWord(wordMoveBase, op.base)
	pkt.Msg.SetWord(wordMoveSend, op.sendSeq)
	n.send(pkt, op.peer.Host())
}

func (n *Node) moveTimeout(op *moveOp) {
	t := &n.moves
	t.mu.Lock()
	if t.closed || t.m[op.seq] != op || op.done {
		t.mu.Unlock()
		return
	}
	op.retries++
	if op.retries > n.cfg.Retries {
		t.removeLocked(op)
		t.mu.Unlock()
		op.finish(ErrTimeout)
		return
	}
	op.io.RLock()
	timer := op.timer // a pooled op's fields are read under the lock or the pin
	t.mu.Unlock()
	n.stats.retransmits.Add(1)
	if op.kind == moveTo {
		// Resend only the final packet to re-elicit a progress ack.
		chunk := uint32(n.cfg.ChunkSize)
		last := (op.size - 1) / chunk * chunk
		n.streamMoveTo(op, last)
	} else {
		op.mu.Lock()
		got := op.got
		op.mu.Unlock()
		n.sendMoveFromReq(op, got)
	}
	op.io.RUnlock()
	timer.Reset(n.cfg.RetransmitTimeout)
}

// moveTargetLocked locates the pending Send an inbound move packet
// serves: the one whose seq the mover stamped, between exactly this pair
// of processes, granting the access wanted over the range the packet
// names. Anything else is a stray (a late packet of an earlier exchange,
// a forgery) and gets nil. Caller holds the n.pending lock.
func (n *Node) moveTargetLocked(pkt *vproto.Packet, access byte) *pendingSend {
	ps, ok := n.pending.liveLocked(pkt.Msg.Word(wordMoveSend), pkt.Dst)
	if !ok || ps.dst != pkt.Src || ps.seg == nil || ps.seg.Access&access == 0 ||
		uint64(pkt.Msg.Word(wordMoveBase))+uint64(pkt.Count) > uint64(len(ps.seg.Data)) {
		return nil
	}
	return ps
}

// walk hands the handlers an upcall frame's packets, back to back and
// each as long as its header says, decoded once into pkt: one in a frame
// of the node's own, one flow's moves in a lent view (see Transport).
type walk struct {
	pkt  vproto.Packet
	cur  []byte // pkt's encoding, nil before the first
	rest []byte // the frame past it
	run  bool   // the current run has had more than one packet
}

// next decodes the packet at the head of rest into pkt and steps past
// it; one that fails (or past a frame's first is no move packet) is
// counted in ipc.bad_packets and leaves pkt alone.
func (w *walk) next(n *Node) bool {
	b := w.rest[:vproto.WireLen(w.rest)]
	ok := (w.cur == nil || queued(b)) && vproto.DecodeInto(&w.pkt, b) == nil
	if w.cur, w.rest = b, w.rest[len(b):]; !ok {
		n.stats.badPackets.Add(1)
	}
	return ok
}

// more decodes the next packet of pkt's run into pkt, if there is one. A
// run is packets back to back of one stream (vproto.Continues), up to
// FlagLast or a packet that fails to decode; pkt then is its last.
// ipc.rx_runs counts the runs of two or more packets.
func (w *walk) more(n *Node) bool {
	ok := w.pkt.Flags&vproto.FlagLast == 0 && vproto.Continues(w.cur, w.rest) && w.next(n)
	if ok && !w.run {
		n.stats.rxRuns.Add(1)
	}
	w.run = ok
	return ok
}

// skip passes over the rest of pkt's run and returns its length.
func (w *walk) skip(n *Node) int64 {
	k := int64(1)
	for ; w.more(n); k++ {
	}
	return k
}

// land copies pkt's run into the scatter list vec, go-back-N: a packet
// at the offset the stream has reached, *got, lands (within size); any
// other is dropped (ipc.move_ooo_drops).
func (w *walk) land(n *Node, vec [][]byte, got *uint32, size uint32) {
	for ok := true; ok; ok = w.more(n) {
		if p := &w.pkt; p.Offset != *got {
			n.stats.moveOOODrops.Add(1)
		} else if uint64(p.Offset)+uint64(len(p.Data)) <= uint64(size) {
			scatterCopy(vec, p.Offset, p.Data)
			*got += uint32(len(p.Data))
		}
	}
}

// landMoveTo lands the run pkt starts, a MoveTo's data, in the granted
// segment. A run ending the stream acks it and, if it has landed whole,
// then delivers the reply held for it, so the replier, which waits on
// the ack, is released first.
func (n *Node) landMoveTo(w *walk) {
	pkt := &w.pkt // each packet of the run in turn, alike but for their data
	pt := &n.pending
	pt.mu.Lock()
	ps := n.moveTargetLocked(pkt, SegWrite)
	if ps == nil {
		pt.mu.Unlock()
		k := w.skip(n) // late packets of an earlier exchange, forgeries
		if pkt.Flags&(vproto.FlagLast|vproto.FlagStreamed) == vproto.FlagLast|vproto.FlagStreamed {
			// A streamed reply's train outlives its exchange: the mover
			// resends the last packet because the ack was lost after the
			// reply had ended the exchange (or the Send gave up). Ack it.
			n.sendMoveAck(pkt, pkt.Count, true)
			k--
		}
		n.stats.badPackets.Add(k)
		return
	}
	ps.retries = 0 // the mover is alive, and a held reply's Send waits on it
	// Pin the segment for writing before the exchange can complete (see
	// outstanding.io).
	ps.io.RLock()
	pt.mu.Unlock()

	rx := &ps.rx
	rx.mu.Lock()
	if age := int32(pkt.Seq - rx.seq); rx.seq == 0 || age > 0 {
		rx.seq, rx.expected = pkt.Seq, 0 // the mover's next stream
	} else if age < 0 {
		rx.mu.Unlock()
		ps.io.RUnlock()
		w.skip(n) // stragglers of a stream the mover has finished with
		return
	}
	base := pkt.Msg.Word(wordMoveBase)
	w.land(n, [][]byte{ps.seg.Data[base : base+pkt.Count]}, &rx.expected, pkt.Count)
	received := rx.expected
	complete := received >= pkt.Count
	held := complete && rx.heldSeq == pkt.Seq
	var reply Message
	if held {
		reply, rx.heldSeq = rx.held, 0
	}
	rx.mu.Unlock()
	ps.io.RUnlock()

	if pkt.Flags&vproto.FlagLast != 0 {
		n.sendMoveAck(pkt, received, complete)
	}
	if held {
		if ps, ok := pt.take(pkt.Msg.Word(wordMoveSend), pkt.Dst); ok {
			ps.finish(sendResult{msg: reply})
		}
	}
}

func (n *Node) sendMoveAck(pkt *vproto.Packet, received uint32, complete bool) {
	ack := &vproto.Packet{
		Kind:   vproto.KindMoveToAck,
		Seq:    pkt.Seq,
		Src:    pkt.Dst,
		Dst:    pkt.Src,
		Offset: received,
	}
	if complete {
		ack.Flags |= vproto.FlagLast
	}
	n.send(ack, pkt.Src.Host())
}

// ackStreamedReply completes owner's train stream, which a streamed reply
// rode behind, when the replied sender's next Send arrives: as in V, that
// Send stands for the ack, since the reply was delivered only once the
// train had landed (or the Send gave up; as for a Reply, nobody is told).
func (n *Node) ackStreamedReply(stream uint32, owner Pid) {
	if op, ok := n.moves.take(stream, owner); ok {
		op.finish(nil)
	}
}

// handleMoveAck completes or resumes an outstanding MoveTo.
func (n *Node) handleMoveAck(pkt *vproto.Packet) {
	t := &n.moves
	t.mu.Lock()
	op, ok := t.liveLocked(pkt.Seq, pkt.Dst)
	if !ok || op.kind != moveTo {
		t.mu.Unlock()
		return
	}
	if pkt.Flags&vproto.FlagLast != 0 && pkt.Offset >= op.size {
		t.removeLocked(op)
		t.mu.Unlock()
		op.finish(nil)
		return
	}
	t.mu.Unlock()
	n.resume(op, pkt.Seq, pkt.Dst, pkt.Offset, true)
}

// handleMoveFromReq streams the requested range back; the data packets
// acknowledge the request (§3.3).
func (n *Node) handleMoveFromReq(pkt *vproto.Packet) {
	pt := &n.pending
	pt.mu.Lock()
	ps := n.moveTargetLocked(pkt, SegRead)
	if ps == nil {
		pt.mu.Unlock()
		n.stats.badPackets.Add(1)
		return
	}
	// Pin the segment for reading until streaming completes (see
	// outstanding.io).
	ps.io.RLock()
	pt.mu.Unlock()
	defer ps.io.RUnlock()
	base := pkt.Msg.Word(wordMoveBase)
	n.streamTrain(vproto.Packet{
		Kind:  vproto.KindMoveFromData,
		Seq:   pkt.Seq,
		Src:   pkt.Dst,
		Dst:   pkt.Src,
		Count: pkt.Count,
	}, [][]byte{ps.seg.Data[base : base+pkt.Count]}, pkt.Offset, nil)
}

// landPull lands the run pkt starts, pulled bytes, in the requester's
// scatter list (fillPull); a gap at the stream's end is pulled again.
func (n *Node) landPull(w *walk) {
	pkt := &w.pkt
	if !n.fillPull(pkt.Seq, pkt.Dst, false, func(op *moveOp) (bool, bool) {
		w.land(n, op.vec, &op.got, op.size)
		return pkt.Flags&vproto.FlagLast != 0, true
	}) {
		w.skip(n)
	}
}

// fillPull runs fill, which lands bytes in live pull op seq of owner and
// says whether their stream ended and lost a packet, under the op's lock
// and io pin. A full op then completes (ipc.push_hits if pushed), else one
// whose stream ended pulls the rest; false if op seq is not live.
func (n *Node) fillPull(seq uint32, owner Pid, pushed bool, fill func(op *moveOp) (ended, lost bool)) bool {
	t := &n.moves
	t.mu.Lock()
	op, ok := t.liveLocked(seq, owner)
	if !ok || op.kind != moveFrom {
		t.mu.Unlock()
		return false
	}
	op.io.RLock()
	t.mu.Unlock()
	op.mu.Lock()
	ended, lost := fill(op)
	got, size := op.got, op.size
	op.mu.Unlock()
	op.io.RUnlock()
	if got >= size {
		if _, ok := t.take(seq, owner); ok {
			if pushed {
				n.stats.pushHits.Add(1)
			}
			op.finish(nil)
		}
	} else if ended {
		n.resume(op, seq, owner, got, lost)
	}
	return true
}

// resume restarts live transfer op from byte from, a MoveTo's train or a
// pull's request: after a gap if resumed, else past what a push covered.
func (n *Node) resume(op *moveOp, seq uint32, owner Pid, from uint32, resumed bool) {
	t := &n.moves
	t.mu.Lock()
	if _, ok := t.liveLocked(seq, owner); !ok {
		t.mu.Unlock()
		return
	}
	op.retries = 0
	op.io.RLock()
	timer := op.timer
	t.mu.Unlock()
	if resumed {
		n.stats.moveResumes.Add(1)
	}
	if op.kind == moveTo {
		n.streamMoveTo(op, from)
	} else {
		n.sendMoveFromReq(op, from)
	}
	op.io.RUnlock()
	timer.Reset(n.cfg.RetransmitTimeout)
}

// pushMax bounds a push: a remote Send whose segment grants read access
// only (a writable one may change under the push) streams its first
// pushMax bytes right behind itself, the train a pull would bring, as
// MoveFromData marked FlagStreamed with the Send's Seq; a Send as long as
// a push packet heads the train's first frame, one kernel crossing
// instead of two (the receiving read loop handles it first). The receiver
// lands them in the Send's descriptor (landPush) for a MoveFrom inside
// the span (pullPushed): the pull protocol recovers what the push lost.
const pushMax = 64 << 10

// landPush lands the run pkt starts, pushed packets, in the descriptor
// of the Send whose seq they carry, go-back-N from the inline prefix, and
// then feeds a waiting MoveFrom; a packet for no live, unreplied
// descriptor of that seq, or past a gap, is dropped. A MoveFrom reads
// only bytes below pushLen, which nothing writes again.
func (n *Node) landPush(w *walk) {
	pkt := &w.pkt
	t := &n.aliens
	t.mu.Lock()
	a, ok := t.m[pkt.Src]
	if !ok || a.seq != pkt.Seq || a.push == nil {
		t.mu.Unlock()
		n.stats.pushDrops.Add(w.skip(n))
		return
	}
	for ok := true; ok; ok = w.more(n) {
		switch from, end := uint64(pkt.Offset), uint64(pkt.Offset)+uint64(len(pkt.Data)); {
		case from > uint64(a.pushLen) || end > uint64(len(a.push.Data)):
			n.stats.pushDrops.Add(1) // past a gap: the MoveFrom resumes from it
		case end > uint64(a.pushLen): // else landed already: the inline prefix, a duplicate
			copy(a.push.Data[a.pushLen:end], pkt.Data[uint64(a.pushLen)-from:])
			a.pushLen = uint32(end)
		}
	}
	last := pkt.Flags&vproto.FlagLast != 0
	a.pushEnd = a.pushEnd || last
	waiter, landed := a.pushOp, a.pushLen
	if waiter == 0 {
		t.mu.Unlock()
		return
	}
	buf := a.push.Retain() // the waiter copies out of it past the unlock
	t.mu.Unlock()
	n.feedPushed(waiter, pkt.Dst, buf.Data, landed, last)
	buf.Release()
}

// pullPushed serves pull op from the push behind a's Send if op starts in
// the pushed span: op takes what has landed and waits for landPush to
// feed it the rest. It reports false when there is no push to serve op.
func (n *Node) pullPushed(op *moveOp, a *alien) bool {
	t := &n.aliens
	t.mu.Lock()
	if a.seq != op.sendSeq || a.push == nil || op.base >= uint32(len(a.push.Data)) {
		t.mu.Unlock()
		return false
	}
	a.pushOp = op.seq
	buf, landed, ended := a.push.Retain(), a.pushLen, a.pushEnd
	t.mu.Unlock()
	n.feedPushed(op.seq, op.owner, buf.Data, landed, ended)
	buf.Release()
	return true
}

// feedPushed copies what pull op seq lacks of the landed pushed[:landed]
// into its scatter list (fillPull): once the push has ended, what it did
// not bring is pulled, a resume if it lost a packet.
func (n *Node) feedPushed(seq uint32, owner Pid, pushed []byte, landed uint32, ended bool) {
	n.fillPull(seq, owner, true, func(op *moveOp) (bool, bool) {
		if from := op.base + op.got; landed > from {
			to := min(landed, op.base+op.size)
			scatterCopy(op.vec, op.got, pushed[from:to])
			op.got = to - op.base
		}
		return ended, landed < uint32(len(pushed))
	})
}
