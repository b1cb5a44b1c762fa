package ipc

import (
	"encoding/binary"
	"runtime"
	"sync"

	"vkernel/internal/vproto"
)

// dispatcher hands received packets from a transport's read loops to a
// fixed set of worker goroutines, one queue per worker. A packet's queue
// is chosen by its flow — the (src pid, dst pid) pair in the fixed
// header — so packets of one flow are handled by one worker in the order
// they were enqueued, while different flows spread over the workers and
// run concurrently. That ordering is what lets a §3.3 packet train land
// without tripping the go-back-N receivers: a free-for-all pool hands
// packet k+1 to whichever worker the scheduler runs first, which with
// two or more workers is systematically not the one holding packet k.
//
// Both transports use it: T is an rxItem for UDPTransport, which queues
// only move packets (see queued), and a (port, frame) delivery for
// MemNetwork, which queues every packet.
type dispatcher[T any] struct {
	run    func(worker int, batch []T) // handles and disposes of every item
	depth  int                         // per-queue bound in packets, 0 = unbounded
	queues []*dispatchQueue[T]
	wg     sync.WaitGroup
}

// dispatchQueue is one worker's backlog. The worker takes the whole
// backlog at once and swaps in its emptied previous batch, so the steady
// state allocates nothing and a burst costs one wakeup, not one per
// packet.
type dispatchQueue[T any] struct {
	mu      sync.Mutex
	ready   sync.Cond // the worker waits here for items or close
	space   sync.Cond // bounded producers wait here for room
	pending []T
	packets int // the packets pending items carry, what depth bounds
	closed  bool
}

// newDispatcher starts workers goroutines. depth bounds each queue's
// packets (an item may be a train): an enqueue onto a full queue blocks
// until the worker takes the backlog (the read loop stalls and arrivals
// spill into the kernel socket buffer). depth 0 leaves the queues
// unbounded, for producers that are themselves workers and so must never
// block (MemNetwork).
func newDispatcher[T any](workers, depth int, run func(worker int, batch []T)) *dispatcher[T] {
	d := &dispatcher[T]{run: run, depth: depth, queues: make([]*dispatchQueue[T], workers)}
	d.wg.Add(workers)
	for w := range d.queues {
		q := &dispatchQueue[T]{}
		q.ready.L, q.space.L = &q.mu, &q.mu
		d.queues[w] = q
		go d.work(w, q)
	}
	return d
}

// dispatchWorkers sizes a dispatcher: one worker per available CPU, at
// least 2, and at most limit when limit > 0 (so a large host does not
// hold dozens of idle goroutines per transport).
func dispatchWorkers(limit int) int {
	w := max(runtime.GOMAXPROCS(0), 2)
	if limit > 0 {
		w = min(w, limit)
	}
	return w
}

// flowOf keys an encoded packet by its (src pid, dst pid) pair, read
// from the fixed header without decoding; runts share flow 0. The pids
// are summed rather than scrambled because a node mints local ids
// consecutively: the processes of one workstation talking to one server
// get consecutive keys and so land on different workers instead of
// colliding at random, in both directions. Keying on the pair rather
// than the source keeps replies and MoveTo trains from one server pid
// spread over the client's workers by destination process.
func flowOf(pkt []byte) uint32 {
	if len(pkt) < 16 {
		return 0
	}
	h := binary.BigEndian.Uint32(pkt[8:12]) + binary.BigEndian.Uint32(pkt[12:16])
	return h + h>>16 // fold the host fields in
}

// queued reports whether a UDP read loop hands an encoded packet to the
// dispatcher. Move packets are queued: their handlers copy into segments,
// and a MoveFromReq or a resuming MoveToAck streams a whole train. The
// rest — the exchange protocol, runts, unknown kinds — is handled where
// it was read, the paper's "common case at interrupt level": those
// handlers touch one table, hand over a result or wake a receiver, and
// send at most one datagram. The lane is a property of the kind, even
// for a Send that heads its push's train frame (see addSegments).
func queued(pkt []byte) bool {
	if len(pkt) == 0 {
		return false
	}
	switch vproto.Kind(pkt[0]) {
	case vproto.KindMoveToData, vproto.KindMoveToAck, vproto.KindMoveFromReq, vproto.KindMoveFromData:
		return true
	}
	return false
}

// workerOf returns the worker an encoded packet's flow belongs to.
func (d *dispatcher[T]) workerOf(pkt []byte) int { return int(flowOf(pkt) % uint32(len(d.queues))) }

// enqueue appends items holding packets packets, in order, to a worker's
// queue, which takes over what they own. All producers must have
// returned before close is called.
func (d *dispatcher[T]) enqueue(worker int, items []T, packets int) {
	q := d.queues[worker]
	q.mu.Lock()
	for d.depth > 0 && q.packets >= d.depth {
		q.space.Wait()
	}
	q.pending = append(q.pending, items...)
	q.packets += packets
	q.mu.Unlock()
	q.ready.Signal()
}

func (d *dispatcher[T]) work(w int, q *dispatchQueue[T]) {
	defer d.wg.Done()
	var batch []T
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.ready.Wait()
		}
		if len(q.pending) == 0 {
			q.mu.Unlock()
			return
		}
		batch, q.pending = q.pending, batch[:0]
		q.packets = 0
		q.mu.Unlock()
		q.space.Broadcast()
		d.run(w, batch)
		clear(batch) // the spare slice must not pin handled frames
	}
}

// close lets the workers finish what is queued, then stops them.
func (d *dispatcher[T]) close() {
	for _, q := range d.queues {
		q.mu.Lock()
		q.closed = true
		q.mu.Unlock()
		q.ready.Signal()
	}
	d.wg.Wait()
}
