package ipc

import (
	"sync"
	"time"

	"vkernel/internal/bufpool"
)

// The node's state is decomposed into independently locked subsystems so
// that concurrent transactions only serialize where V semantics require
// it: alien descriptors (duplicate filtering), outstanding Sends, bulk
// transfers, and the name registry each have their own lock, and the
// process table is striped (see proctable.go).

// alienTable owns the remote-sender descriptors (§3.2). Its mutex also
// guards every alien's mutable fields, so the check-and-insert in
// handleSend — the duplicate filter — is atomic.
//
// Replied descriptors — the only evictable ones — are threaded on an
// intrusive doubly-linked LRU list, maintained on every touch (reply,
// duplicate answered from the reply cache), so eviction under descriptor
// pressure is O(1) instead of a full-map scan under the table lock.
type alienTable struct {
	mu      sync.Mutex
	m       map[Pid]*alien
	lruHead *alien // least recently touched replied descriptor
	lruTail *alien // most recently touched
	closed  bool   // set by drainRelease; no descriptors or frames after
}

func (t *alienTable) init() { t.m = make(map[Pid]*alien) }

// lruPushLocked appends a as the most recently touched evictable
// descriptor; caller holds t.mu and a is not on the list.
func (t *alienTable) lruPushLocked(a *alien) {
	a.onLRU = true
	a.lruPrev = t.lruTail
	a.lruNext = nil
	if t.lruTail != nil {
		t.lruTail.lruNext = a
	} else {
		t.lruHead = a
	}
	t.lruTail = a
}

// lruUnlinkLocked removes a from the eviction list if present; caller
// holds t.mu.
func (t *alienTable) lruUnlinkLocked(a *alien) {
	if !a.onLRU {
		return
	}
	if a.lruPrev != nil {
		a.lruPrev.lruNext = a.lruNext
	} else {
		t.lruHead = a.lruNext
	}
	if a.lruNext != nil {
		a.lruNext.lruPrev = a.lruPrev
	} else {
		t.lruTail = a.lruPrev
	}
	a.lruPrev, a.lruNext = nil, nil
	a.onLRU = false
}

// lruTouchLocked moves a to the most-recently-touched end; caller holds
// t.mu and a is on the list.
func (t *alienTable) lruTouchLocked(a *alien) {
	if a.lruNext == nil {
		return // already the tail
	}
	t.lruUnlinkLocked(a)
	t.lruPushLocked(a)
}

// evictLocked reclaims the least-recently-touched replied alien in O(1);
// caller holds t.mu. Unreplied descriptors represent exchanges still in
// progress and are never on the list.
func (t *alienTable) evictLocked() bool {
	victim := t.lruHead
	if victim == nil {
		return false
	}
	t.removeLocked(victim)
	return true
}

// removeLocked deletes a's map entry and eviction-list membership and
// returns the table's reference on the cached reply frame; caller holds
// t.mu. In-flight transmitters of the frame hold their own references.
func (t *alienTable) removeLocked(a *alien) {
	t.lruUnlinkLocked(a)
	delete(t.m, a.src)
	a.replyFrame.Release()
	a.replyFrame = nil
}

// markReceived records delivery of the alien's message to a local process.
func (t *alienTable) markReceived(a *alien, by Pid) {
	t.mu.Lock()
	a.received = true
	a.awaiting = by
	t.mu.Unlock()
}

// cacheReply stores the encoded reply frame so duplicate retransmissions
// are answered without re-executing the request, and makes the descriptor
// evictable. The table takes its own reference on the frame — dropped
// when the descriptor goes — unless the descriptor was already replaced
// or the table has shut down, in which case the frame is left to the
// caller alone.
func (t *alienTable) cacheReply(a *alien, f *bufpool.Buf) {
	t.mu.Lock()
	a.replied = true
	if !t.closed && t.m[a.src] == a {
		a.replyFrame = f.Retain()
		if !a.onLRU {
			t.lruPushLocked(a)
		}
	}
	t.mu.Unlock()
}

// markShed flags the descriptor's message as refused by backpressure and
// makes the descriptor evictable: it only exists to keep filtering
// duplicates of the shed Send, so it must not pin table capacity.
func (t *alienTable) markShed(a *alien) {
	t.mu.Lock()
	if t.m[a.src] == a {
		a.shed = true
		if !a.onLRU {
			t.lruPushLocked(a)
		}
	}
	t.mu.Unlock()
}

// drop removes the descriptor if it is still the current one for its
// source (a newer message may have replaced it meanwhile).
func (t *alienTable) drop(a *alien) {
	t.mu.Lock()
	if t.m[a.src] == a {
		t.removeLocked(a)
	}
	t.mu.Unlock()
}

// dropAwaiting removes every unreplied descriptor whose message was
// received by pid. When that process dies without replying, the sender's
// retransmissions must find no descriptor — and so be Nacked — rather
// than be answered reply-pending forever.
func (t *alienTable) dropAwaiting(pid Pid) {
	t.mu.Lock()
	for _, a := range t.m {
		if a.received && !a.replied && a.awaiting == pid {
			t.removeLocked(a)
		}
	}
	t.mu.Unlock()
}

// drainRelease closes the table, returning every cached reply frame to
// the pool. Called once, after the node's transport has quiesced.
func (t *alienTable) drainRelease() {
	t.mu.Lock()
	t.closed = true
	for _, a := range t.m {
		a.replyFrame.Release()
		a.replyFrame = nil
	}
	t.m = map[Pid]*alien{}
	t.lruHead, t.lruTail = nil, nil
	t.mu.Unlock()
}

// pendingTable owns the outstanding remote Sends, keyed by interkernel
// sequence number.
type pendingTable struct {
	mu     sync.Mutex
	m      map[uint32]*pendingSend
	closed bool
}

func (t *pendingTable) init() { t.m = make(map[uint32]*pendingSend) }

// add registers ps and arms its retransmission timer atomically, so a
// reply processed concurrently can never observe a nil timer. The arm
// callback runs inside the critical section and is also where the caller
// (re)initializes the descriptor's per-exchange fields: processes reuse
// one pendingSend across Sends, and every concurrent consumer validates
// a descriptor under this lock before touching it, so the re-init must
// be ordered by the same lock.
func (t *pendingTable) add(ps *pendingSend, arm func() *time.Timer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	ps.timer = arm() // first: arm initializes ps.seq before the insert reads it
	t.m[ps.seq] = ps
	return nil
}

// take removes and returns the live entry for seq addressed to dst,
// marking it done; the caller then owns result delivery.
func (t *pendingTable) take(seq uint32, dst Pid) (*pendingSend, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ps, ok := t.m[seq]
	if !ok || ps.proc.pid != dst || ps.done {
		return nil, false
	}
	ps.done = true
	delete(t.m, seq)
	return ps, true
}

// drain closes the table and returns every live entry, marked done.
func (t *pendingTable) drain() []*pendingSend {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	out := make([]*pendingSend, 0, len(t.m))
	for _, ps := range t.m {
		ps.done = true
		out = append(out, ps)
	}
	t.m = map[uint32]*pendingSend{}
	return out
}

// moveTable owns the outgoing bulk-transfer operations. (Receive-side
// reassembly state lives with the exchange it serves, in pendingSend.rx.)
type moveTable struct {
	mu     sync.Mutex
	m      map[uint32]*moveOp
	closed bool
}

func (t *moveTable) init() { t.m = make(map[uint32]*moveOp) }

// add registers op and arms its timeout atomically (see pendingTable.add).
func (t *moveTable) add(op *moveOp, arm func() *time.Timer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	t.m[op.seq] = op
	op.timer = arm()
	return nil
}

// complete removes op if it is still current and not done; the caller
// then owns delivery on ackCh.
func (t *moveTable) complete(op *moveOp) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m[op.seq] != op || op.done {
		return false
	}
	op.done = true
	delete(t.m, op.seq)
	return true
}

// drain closes the table and returns every live entry, marked done.
func (t *moveTable) drain() []*moveOp {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	out := make([]*moveOp, 0, len(t.m))
	for _, op := range t.m {
		op.done = true
		out = append(out, op)
	}
	t.m = map[uint32]*moveOp{}
	return out
}

// nameTable owns the logical-name registry and the outstanding broadcast
// lookups (§3.1).
type nameTable struct {
	mu      sync.Mutex
	names   map[uint32]nameEntry
	lookups map[uint32][]chan Pid
}

func (t *nameTable) init() {
	t.names = make(map[uint32]nameEntry)
	t.lookups = make(map[uint32][]chan Pid)
}
