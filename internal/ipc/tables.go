package ipc

import (
	"sync"
	"time"

	"vkernel/internal/bufpool"
)

// The node's state is decomposed into independently locked subsystems so
// that concurrent transactions only serialize where V semantics require
// it: alien descriptors (duplicate filtering), outstanding Sends, bulk
// transfers (one opTable each), and the name registry each have their
// own lock, and the process table is striped (see proctable.go).

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
	a.dropPush()
}

// dropPush returns a's push buffer, if any; caller holds the table lock.
func (a *alien) dropPush() {
	a.push.Release()
	a.push = nil
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
//
// cacheReply, drop and markShed check the pointer only, not the
// sequence, although handleSend reuses a replied descriptor in place for
// its sender's next Send: none of them is called on a replied exchange's
// descriptor. Its one Reply has called cacheReply before the descriptor
// can be reused, and drop and markShed serve exchanges that were never
// replied (a dead receiver's queue, a refused enqueue). The replier
// reads nothing of the descriptor after cacheReply. stream names the
// train a streamed reply follows, 0 for none.
func (t *alienTable) cacheReply(a *alien, f *bufpool.Buf, stream uint32) {
	t.mu.Lock()
	a.replied, a.stream = true, stream
	a.dropPush()
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
		a.dropPush()
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
		a.dropPush()
	}
	t.m = map[Pid]*alien{}
	t.lruHead, t.lruTail = nil, nil
	t.mu.Unlock()
}

// outstanding is the lifecycle a remote Send awaiting its reply and a
// bulk transfer awaiting its ack share (§3.2–3.3): registered in an
// opTable under seq, retransmitted by timer until done, then its result
// delivered exactly once by whoever takes it out of the table.
type outstanding struct {
	seq   uint32
	owner Pid // the local process that started the operation
	timer *time.Timer

	// Guarded by the opTable lock.
	retries int
	done    bool

	// io orders buffer access against result delivery: handlers pin the
	// operation's buffers with io.RLock while holding the table lock
	// (after checking it is live) and hold it across the copy, so the
	// completer's barrier, taken after removing the entry, is a full fence
	// — no handler can touch the buffers once the owner has resumed.
	io sync.RWMutex
}

// out gives opTable, through its type parameter, the embedded lifecycle.
func (o *outstanding) out() *outstanding { return o }

// barrier waits out every in-flight buffer access pinned by io.
func (o *outstanding) barrier() {
	o.io.Lock()
	o.io.Unlock()
}

// opTable owns one kind of outstanding operation (n.pending: Sends,
// n.moves: bulk transfers), keyed by interkernel sequence number. Each
// kind has its own table, so replies and move packets take different
// locks.
type opTable[T interface{ out() *outstanding }] struct {
	mu     sync.Mutex
	m      map[uint32]T
	closed bool
}

func (t *opTable[T]) init() { t.m = make(map[uint32]T) }

// add registers o and arms its timer atomically, so a reply processed
// concurrently can never observe a nil timer. The arm callback runs
// inside the critical section and is also where the caller
// (re)initializes the operation's fields, seq among them: processes reuse
// one pendingSend across Sends, and every concurrent consumer validates
// an entry under this lock before touching it, so the re-init must be
// ordered by the same lock.
func (t *opTable[T]) add(o T, arm func() *time.Timer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	out := o.out()
	out.timer = arm() // first: arm initializes seq before the insert reads it
	t.m[out.seq] = o
	return nil
}

// liveLocked returns the entry for seq and whether it is live: not done
// and started by the process dst. Caller holds t.mu.
func (t *opTable[T]) liveLocked(seq uint32, dst Pid) (T, bool) {
	o, ok := t.m[seq]
	if ok {
		out := o.out()
		ok = !out.done && out.owner == dst
	}
	return o, ok
}

// removeLocked marks o done and removes it; caller holds t.mu and then
// owns o's result delivery.
func (t *opTable[T]) removeLocked(o T) {
	out := o.out()
	out.done = true
	delete(t.m, out.seq)
}

// take removes and returns the live entry for seq started by dst; the
// caller then owns its result delivery.
func (t *opTable[T]) take(seq uint32, dst Pid) (T, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	o, ok := t.liveLocked(seq, dst)
	if ok {
		t.removeLocked(o)
	}
	return o, ok
}

// drain closes the table and returns every live entry, marked done.
func (t *opTable[T]) drain() []T {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	live := make([]T, 0, len(t.m))
	for _, o := range t.m {
		o.out().done = true
		live = append(live, o)
	}
	t.m = map[uint32]T{}
	return live
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
