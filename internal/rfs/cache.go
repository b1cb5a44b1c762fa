package rfs

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/obs"
)

// errCacheClosed reports a stage attempted after close; the server
// quiesces its workers before closing the cache, so reaching it means a
// lifecycle bug, not a runtime condition.
var errCacheClosed = errors.New("rfs: block cache closed")

// errStaleSpare reports that the spare old-block image a stage was
// handed predates a concurrent write or truncate of the same block; the
// caller must refetch and retry, or acknowledged bytes could be
// reverted.
var errStaleSpare = errors.New("rfs: stale spare image")

// blockID names one cached block.
type blockID struct {
	file  uint32
	block uint32
}

// Block states. A clean block is an immutable snapshot of store contents
// and may be evicted freely. A dirty block is newer than the store and is
// pinned in the cache until a flusher writes it back (write-behind, §6.2's
// server-side buffering). A flushing block has been claimed by a flusher;
// a write that lands while the flush is in flight swaps in a fresh buffer
// and marks the entry redirty, so the per-block write-back order is always
// oldest-first and the store converges on the newest bytes.
const (
	stateClean = iota
	stateDirty
	stateFlushing
)

// blockCache is the server's in-memory block cache with LRU replacement
// and write-behind dirty-block tracking.
//
// Blocks are pooled, reference-counted buffers. The cache holds one
// reference per entry; get hands the caller another, so a block lent to
// an in-flight reply or bulk transfer survives invalidation, eviction or
// a staged overwrite — the pool cannot recycle it until the borrower's
// Release — while the cache itself moves on immediately. Every cached
// buffer is immutable while reachable by readers: a write never mutates
// an entry's bytes in place, it stages a freshly filled buffer and swaps
// it in under the lock (copy-on-write), so concurrent readers keep a
// consistent pre-write snapshot exactly as a reply already on the wire
// would.
//
// A miss is filled outside the lock (the store read may block), which
// opens a race: read old bytes from the store, lose the CPU to a write
// of the same block, then insert the stale bytes — poisoning the cache
// until the next write. Invalidations AND staged writes therefore bump a
// generation counter (sharded by block id to bound space); the miss path
// snapshots the generation before reading the store and inserts only if
// it is unchanged (put with the gen argument). That is what keeps an
// invalidate or read-miss from resurrecting pre-flush bytes: any store
// read that began before the newest staged write is discarded on insert.
type blockCache struct {
	mu        sync.Mutex
	cond      *sync.Cond // flusher work, budget headroom, drain progress
	capacity  int
	blockSize int
	budget    int // max non-clean blocks before stage applies backpressure
	maxRun    int // max blocks coalesced into one flush write
	entries   map[blockID]*list.Element
	lru       *list.List // front = most recently used
	// fileBlocks counts entries per file; a file with none is absent.
	fileBlocks map[uint32]int

	// Write-behind state, guarded by mu. dirty holds the staged blocks no
	// flusher has claimed yet; dirtyCount counts every non-clean entry
	// (dirty + flushing), the quantity the budget bounds; fileDirty is
	// the same count per file. staged tracks each file's write
	// high-water mark so size queries and bounds checks see unflushed
	// extensions; once a file has no non-clean blocks the store covers
	// the mark and the entry is pruned (the maps stay proportional to
	// in-flight work, not to every file id ever written).
	dirty      map[blockID]*cacheEntry
	dirtyCount int
	fileDirty  map[uint32]int
	staged     map[uint32]int64
	closed     bool
	// flushErrByFile holds the first write-back error per file since that
	// file's last drain. Per-file, not a single sticky error: a per-file
	// sync must report — and clear — only its own file's failures, or a
	// sync of a healthy file would steal (and erase) the failing file's
	// error and the failing file's next sync would report success for
	// lost bytes.
	flushErrByFile map[uint32]error
	write          func(file uint32, off int64, p []byte) error
	flushWG        sync.WaitGroup

	gens [256]atomic.Uint64 // invalidation stamps, sharded by block id

	// ring, when set (the server wires its registry's trace ring in),
	// receives a span event per flush run that writes back a traced
	// block — the asynchronous tail of a traced write's timeline. Nil
	// (standalone cache tests) disables flush tracing.
	ring *obs.TraceRing

	hits          atomic.Int64
	misses        atomic.Int64
	flushRuns     atomic.Int64
	flushedBlocks atomic.Int64
	flushErrs     atomic.Int64
}

type cacheEntry struct {
	id      blockID
	buf     *bufpool.Buf
	end     int // valid bytes: in-file extent (clean), flush extent (dirty)
	state   int
	redirty bool // staged again while its flush was in flight
	flushes int  // completed write-backs; lets a drain spot "flushed since"
	// trace is the last staging writer's trace id (0 = untraced); the
	// flusher that writes the entry back logs the flush under it, so a
	// traced write's timeline covers its asynchronous write-back too.
	trace uint32
}

// flushItem is one claimed block of a flush run: the entry plus a
// retained snapshot of the buffer and extent being written, so completion
// can tell whether the entry was re-staged or invalidated meanwhile.
type flushItem struct {
	e     *cacheEntry
	buf   *bufpool.Buf
	end   int
	trace uint32
}

// newBlockCache builds the cache and starts its flushers; write is their
// store write-back hook.
func newBlockCache(capacity, blockSize, budget, flushers int, write func(file uint32, off int64, p []byte) error) *blockCache {
	c := &blockCache{
		capacity:       capacity,
		blockSize:      blockSize,
		budget:         budget,
		maxRun:         64 * 1024 / blockSize, // one flush write covers ≤ 64 KB (a pooled staging class)
		entries:        make(map[blockID]*list.Element),
		lru:            list.New(),
		fileBlocks:     make(map[uint32]int),
		dirty:          make(map[blockID]*cacheEntry),
		fileDirty:      make(map[uint32]int),
		staged:         make(map[uint32]int64),
		flushErrByFile: make(map[uint32]error),
		write:          write,
	}
	c.cond = sync.NewCond(&c.mu)
	for i := 0; i < flushers; i++ {
		c.flushWG.Add(1)
		go c.flusher()
	}
	return c
}

// getEnd returns the cached block with a reference for the caller
// (Release when done), marking it most recently used, and its valid-byte
// extent (the in-file bytes for clean blocks, the staged write extent for
// dirty ones). Callers must not mutate the block's bytes.
func (c *blockCache) getEnd(id blockID) (*bufpool.Buf, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[id]
	if !ok {
		c.misses.Add(1)
		return nil, 0, false
	}
	c.hits.Add(1)
	c.lru.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.buf.Retain(), e.end, true
}

// lend is getEnd for a train's consecutive blocks under one lock:
// slots[i] gets block first+i of file, retained for the caller, or nil
// when the cache does not hold it. Hits and misses are counted per block;
// the probing stops once every block the cache holds of file is found.
func (c *blockCache) lend(file, first uint32, slots []*bufpool.Buf) {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(slots)
	hits, held := 0, c.fileBlocks[file]
	for i := 0; i < len(slots) && hits < held; i++ {
		if el, ok := c.entries[blockID{file: file, block: first + uint32(i)}]; ok {
			c.lru.MoveToFront(el)
			slots[i] = el.Value.(*cacheEntry).buf.Retain()
			hits++
		}
	}
	c.hits.Add(int64(hits))
	c.misses.Add(int64(len(slots) - hits))
}

// genOf returns the invalidation-stamp shard for a block id.
func (c *blockCache) genOf(id blockID) *atomic.Uint64 {
	h := (id.file*2654435761 + id.block) * 2654435761
	return &c.gens[h>>24&0xff]
}

// snapshot returns the block's current invalidation stamp; take it before
// reading the store on a miss and pass it to put.
func (c *blockCache) snapshot(id blockID) uint64 { return c.genOf(id).Load() }

// stagedSize returns the file's unflushed write high-water mark (0 when
// nothing is staged).
func (c *blockCache) stagedSize(file uint32) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.staged[file]
}

// dirtyBlocks returns the current number of non-clean blocks.
func (c *blockCache) dirtyBlocks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dirtyCount
}

// put inserts or refreshes a clean block read from the store (end = its
// in-file byte count), evicting the least recently used clean entry past
// capacity. The cache takes its own reference on buf; the caller keeps
// (and eventually releases) its own. The insert is skipped if the block
// was invalidated or staged since gen was snapshotted — the data was read
// before a concurrent write and is stale.
func (c *blockCache) put(id blockID, buf *bufpool.Buf, gen uint64, end int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.genOf(id).Load() != gen {
		return
	}
	if el, ok := c.entries[id]; ok {
		e := el.Value.(*cacheEntry)
		if e.state != stateClean {
			return // never clobber staged bytes with store bytes
		}
		e.buf.Release()
		e.buf = buf.Retain()
		e.end = end
		c.lru.MoveToFront(el)
		return
	}
	c.linkLocked(&cacheEntry{id: id, buf: buf.Retain(), end: end})
	c.evictExcessLocked()
}

// stage installs buf as the block's newest contents for write-behind: the
// payload occupies buf.Data[payStart:payEnd], and stage completes the
// image around it under the lock — head and tail bytes come from the
// current cache entry when present (which may itself be dirty: staged
// writes merge in order), else from spare (a pre-fetched store image of
// spareEnd in-file bytes, nil when the caller knows none is needed), else
// zeros. The entry is marked dirty and pinned until a flusher writes
// buf.Data[:end] back, where end covers both the payload and whatever
// older valid bytes the image preserves. The caller keeps its reference
// on buf (the cache retains its own) and must not touch buf.Data after
// stage returns — the buffer now backs concurrent readers.
//
// spareGen is the block's generation snapshotted BEFORE the spare image
// was fetched; if the generation has moved and the entry is gone (a
// concurrent write was staged, flushed and evicted in the meantime),
// stage refuses with errStaleSpare rather than resurrect the pre-write
// image — the caller refetches and retries.
//
// stage blocks while the dirty budget is exhausted — that is the
// write-behind backpressure: writers run ahead of the store by at most
// budget blocks, then throttle to flush speed.
func (c *blockCache) stage(id blockID, buf *bufpool.Buf, payStart, payEnd int, spare []byte, spareEnd int, spareGen uint64, trace uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.closed && c.budget > 0 && c.dirtyCount >= c.budget {
		// Only an already-dirty block may be re-staged without growing
		// dirtyCount, but distinguishing it here costs a map lookup per
		// wait loop for a rare case; blocking uniformly keeps the bound.
		if el, ok := c.entries[id]; ok && el.Value.(*cacheEntry).state != stateClean {
			break // re-staging an accounted block never exceeds the budget
		}
		c.cond.Wait()
	}
	if c.closed {
		return errCacheClosed
	}

	// Complete the image around the payload from the freshest older bytes.
	var old []byte
	oldEnd := 0
	if el, ok := c.entries[id]; ok {
		e := el.Value.(*cacheEntry)
		old, oldEnd = e.buf.Data, e.end
	} else if payStart > 0 || payEnd < len(buf.Data) {
		// The payload does not cover the block and there is no live
		// entry to merge with: the caller-provided image (spare, or
		// "nothing": zeros) fills the gaps, but only if it is still
		// current — a concurrent write staged, flushed and evicted since
		// the caller snapshotted would otherwise be reverted.
		if c.genOf(id).Load() != spareGen {
			return errStaleSpare
		}
		old, oldEnd = spare, spareEnd
	}
	c.genOf(id).Add(1)
	end := payEnd
	if oldEnd > end {
		end = oldEnd
	}
	fillAround(buf.Data, payStart, payEnd, old, oldEnd)

	if el, ok := c.entries[id]; ok {
		e := el.Value.(*cacheEntry)
		e.buf.Release()
		e.buf = buf.Retain()
		e.end = end
		e.trace = trace
		switch e.state {
		case stateClean:
			e.state = stateDirty
			c.dirty[id] = e
			c.addNonCleanLocked(id.file)
		case stateDirty:
			// already queued (the flusher will pick up the newer buffer)
		case stateFlushing:
			e.redirty = true
		}
		c.lru.MoveToFront(el)
	} else {
		e := &cacheEntry{id: id, buf: buf.Retain(), end: end, state: stateDirty, trace: trace}
		c.linkLocked(e)
		c.dirty[id] = e
		c.addNonCleanLocked(id.file)
		c.evictExcessLocked()
	}
	if hw := int64(id.block)*int64(c.blockSize) + int64(end); hw > c.staged[id.file] {
		c.staged[id.file] = hw
	}
	c.cond.Broadcast()
	return nil
}

// fillAround completes a staged block image: bytes outside
// [payStart:payEnd) come from old (valid to oldEnd) where available and
// zeros elsewhere — including the tail past the valid extent, which
// readers receive too (getBlock's contract is a zero-padded full block)
// — so a pooled buffer never leaks a previous tenant's bytes into the
// cache or the store.
func fillAround(dst []byte, payStart, payEnd int, old []byte, oldEnd int) {
	if payStart > 0 {
		n := 0
		if oldEnd > 0 {
			h := payStart
			if oldEnd < h {
				h = oldEnd
			}
			n = copy(dst[:payStart], old[:h])
		}
		for i := n; i < payStart; i++ {
			dst[i] = 0
		}
	}
	if oldEnd > payEnd {
		copy(dst[payEnd:oldEnd], old[payEnd:oldEnd])
	}
	valid := payEnd
	if oldEnd > valid {
		valid = oldEnd
	}
	for i := valid; i < len(dst); i++ {
		dst[i] = 0
	}
}

// evictExcessLocked evicts least-recently-used clean entries until the
// cache is back within capacity. Dirty and flushing blocks are never
// evicted — dropping one would lose acknowledged writes — so under a
// write burst the cache may transiently hold capacity + budget blocks.
func (c *blockCache) evictExcessLocked() {
	for el := c.lru.Back(); el != nil && c.lru.Len() > c.capacity; {
		prev := el.Prev()
		if el.Value.(*cacheEntry).state == stateClean {
			c.unlinkLocked(el)
		}
		el = prev
	}
}

// linkLocked inserts a new entry as most recently used. Caller holds c.mu.
func (c *blockCache) linkLocked(e *cacheEntry) {
	c.entries[e.id] = c.lru.PushFront(e)
	c.fileBlocks[e.id.file]++
}

// unlinkLocked drops an entry and the cache's reference on its buffer.
func (c *blockCache) unlinkLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.id)
	if c.fileBlocks[e.id.file]--; c.fileBlocks[e.id.file] == 0 {
		delete(c.fileBlocks, e.id.file)
	}
	e.buf.Release()
}

// invalidate drops a block (a replica's store-first apply made it stale)
// and stamps the invalidation so in-flight miss fills cannot resurrect
// it. Borrowers of the block are unaffected: only the cache's reference
// is dropped. A staged-but-unflushed block is discarded outright — the
// caller is declaring the store's (about-to-be) contents authoritative.
func (c *blockCache) invalidate(id blockID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.genOf(id).Add(1)
	if el, ok := c.entries[id]; ok {
		c.removeLocked(el)
	}
}

// addNonCleanLocked accounts one block entering the dirty/flushing
// world; caller holds c.mu.
func (c *blockCache) addNonCleanLocked(file uint32) {
	c.dirtyCount++
	c.fileDirty[file]++
}

// dropNonCleanLocked accounts one block settling back to clean (or being
// discarded); when it was the file's last non-clean block, the store
// size now covers the staged high-water mark and the per-file tracking
// is pruned. Caller holds c.mu.
func (c *blockCache) dropNonCleanLocked(file uint32) {
	c.dirtyCount--
	if n := c.fileDirty[file] - 1; n > 0 {
		c.fileDirty[file] = n
	} else {
		delete(c.fileDirty, file)
		delete(c.staged, file)
	}
}

// removeLocked drops an entry and settles its write-behind accounting.
// A flushing entry's dirtyCount is left to its flusher's completion,
// which detects the removal and writes the orphaned bytes off.
func (c *blockCache) removeLocked(el *list.Element) {
	if e := el.Value.(*cacheEntry); e.state == stateDirty {
		delete(c.dirty, e.id)
		c.dropNonCleanLocked(e.id.file)
		c.cond.Broadcast()
	}
	c.unlinkLocked(el)
}

// truncate drops every cached block of a file — including staged-but-
// unflushed ones: the truncate supersedes the pending writes — and then
// runs create (the store truncation) under the cache lock. Blocks of the
// file already claimed by a flusher are waited out first, so the store
// write of a pre-truncate block is strictly ordered before the
// truncation and can never silently regrow the file afterwards. Holding
// the lock across create stalls the cache for the duration of one store
// call, which a rare administrative operation can afford; what it buys
// is that no stage or claim can slip between the drain and the
// truncation.
func (c *blockCache) truncate(file uint32, create func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		inflight := false
		for el := c.lru.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*cacheEntry); e.id.file == file {
				if e.state == stateFlushing {
					inflight = true
				} else {
					c.removeLocked(el)
				}
			}
			el = next
		}
		if !inflight {
			break
		}
		c.cond.Wait()
	}
	delete(c.staged, file)
	// Blocks of the file may also be mid-fill from the old contents
	// without being cached yet; bump every shard so those inserts drop.
	for i := range c.gens {
		c.gens[i].Add(1)
	}
	return create()
}

// flusher is one write-behind worker: it claims runs of consecutive dirty
// blocks of one file and writes each run back with a single store write.
func (c *blockCache) flusher() {
	defer c.flushWG.Done()
	for {
		c.mu.Lock()
		for !c.closed && len(c.dirty) == 0 {
			c.cond.Wait()
		}
		if len(c.dirty) == 0 {
			// Closed with nothing left to drain.
			c.mu.Unlock()
			return
		}
		file, start, items := c.claimRunLocked()
		c.mu.Unlock()
		c.flushRun(file, start, items)
	}
}

// claimRunLocked picks any dirty block and claims its run. Caller holds
// c.mu.
func (c *blockCache) claimRunLocked() (file uint32, start uint32, items []flushItem) {
	var seed *cacheEntry
	for _, e := range c.dirty {
		seed = e
		break
	}
	return c.claimRunFromLocked(seed)
}

// claimRunFromLocked extends seed into the maximal run of consecutive
// dirty blocks of the same file (capped at maxRun, and a partially valid
// block can only end a run). Every claimed entry moves to stateFlushing
// with its buffer retained, so the run's bytes stay alive and no other
// flusher can claim them. Caller holds c.mu.
func (c *blockCache) claimRunFromLocked(seed *cacheEntry) (file uint32, start uint32, items []flushItem) {
	file = seed.id.file
	// Walk back to the run's start: every block before the seed becomes
	// an interior block of the run, so it must be fully valid.
	first := seed.id.block
	for steps := 1; steps < c.maxRun && first > 0; steps++ {
		prev, ok := c.dirty[blockID{file: file, block: first - 1}]
		if !ok || prev.end != c.blockSize {
			break
		}
		first--
	}
	// Collect forward; a partially valid block can only end the run.
	items = make([]flushItem, 0, c.maxRun)
	for blk := first; len(items) < c.maxRun; blk++ {
		e, ok := c.dirty[blockID{file: file, block: blk}]
		if !ok {
			break
		}
		e.state = stateFlushing
		delete(c.dirty, e.id)
		items = append(items, flushItem{e: e, buf: e.buf.Retain(), end: e.end, trace: e.trace})
		if e.end != c.blockSize {
			break
		}
	}
	return file, first, items
}

// flushRun writes one claimed run back to the store as a single
// contiguous write, then settles each block: back to clean normally, back
// to dirty if it was re-staged while the flush was in flight, or written
// off if it was invalidated.
func (c *blockCache) flushRun(file uint32, start uint32, items []flushItem) {
	last := items[len(items)-1]
	total := (len(items)-1)*c.blockSize + last.end
	// A traced block in the run makes the whole run's write-back part of
	// that trace's timeline; only then is the clock read at all.
	var traced uint32
	if c.ring != nil {
		for _, it := range items {
			if it.trace != 0 {
				traced = it.trace
				break
			}
		}
	}
	var t0 time.Time
	if traced != 0 {
		t0 = time.Now()
	}
	var err error
	if total > 0 {
		staging := bufpool.Get(total)
		for i, it := range items {
			copy(staging.Data[i*c.blockSize:], it.buf.Data[:it.end])
		}
		err = c.write(file, int64(start)*int64(c.blockSize), staging.Data)
		staging.Release()
	}
	if traced != 0 {
		c.ring.Record(traced, "rfs.flush", uint64(file)<<32|uint64(len(items)), time.Since(t0))
	}
	c.flushRuns.Add(1)
	c.flushedBlocks.Add(int64(len(items)))
	if err != nil {
		c.flushErrs.Add(1)
	}

	c.mu.Lock()
	for _, it := range items {
		e := it.e
		e.flushes++
		if el, ok := c.entries[e.id]; !ok || el.Value.(*cacheEntry) != e {
			// Invalidated (or superseded) while flushing; its accounting
			// was deferred to us.
			c.dropNonCleanLocked(e.id.file)
		} else if e.redirty {
			e.redirty = false
			e.state = stateDirty
			c.dirty[e.id] = e
		} else {
			// On a write error the block still goes clean — retrying
			// forever would wedge the budget; the error is sticky until
			// the next Flush reports it and FlushErrors counts it.
			e.state = stateClean
			c.dropNonCleanLocked(e.id.file)
		}
		it.buf.Release()
	}
	if err != nil && c.flushErrByFile[file] == nil {
		c.flushErrByFile[file] = err
	}
	c.evictExcessLocked()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// flushAll drains the cache (see drain), then returns — and clears —
// the first flush error since the previous flushAll. The server's
// Flush and OpSync call this.
func (c *blockCache) flushAll() error {
	c.drain()
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	for _, e := range c.flushErrByFile {
		err = e
		break
	}
	c.flushErrByFile = make(map[uint32]error)
	return err
}

// drain blocks until every block staged before the call has been
// written back (or written off, or discarded by a truncate). Blocks
// staged while the drain runs do NOT extend it: a sync promises
// durability for the writes acknowledged before it, so a drain
// terminates even while other clients keep writing. It leaves the
// sticky flush errors to the syncs that report them: a replication
// snapshot drains too.
func (c *blockCache) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sn := range c.drainSnapshotLocked(0) {
		for {
			el, ok := c.entries[sn.e.id]
			gone := !ok || el.Value.(*cacheEntry) != sn.e
			if gone || sn.e.state == stateClean || sn.e.flushes >= sn.need {
				break // written back since the snapshot, or discarded
			}
			c.cond.Wait()
		}
	}
}

// drainSnap is one entry a drain waits on: need is the flush count at
// which the snapshot-time bytes are on the store.
type drainSnap struct {
	e    *cacheEntry
	need int
}

// drainSnapshotLocked collects the non-clean entries a drain must wait
// for — all of them, or only one file's (file != 0). Blocks staged after
// the snapshot never extend the drain: a sync promises durability for
// the writes acknowledged before it, so it terminates even under
// sustained writes from other clients. Caller holds c.mu.
func (c *blockCache) drainSnapshotLocked(file uint32) []drainSnap {
	snaps := make([]drainSnap, 0, c.dirtyCount)
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if e.state == stateClean || (file != 0 && e.id.file != file) {
			continue
		}
		need := e.flushes + 1
		if e.state == stateFlushing && e.redirty {
			// The in-flight flush carries a superseded buffer; the bytes
			// acknowledged before this drain are in the entry's current
			// buffer, which only the NEXT flush writes.
			need++
		}
		snaps = append(snaps, drainSnap{e, need})
	}
	return snaps
}

// flushFile drains one file's staged blocks (OpSync with a file id): the
// per-file sync of a multi-tenant server. It is self-servicing — while a
// snapshot block is still unclaimed it claims and flushes the run
// itself, so a per-file sync never queues behind flushers parked inside
// another file's slow store writes; only blocks already claimed by a
// concurrent flush are waited out. It returns — and clears — only this
// file's sticky flush error; other files' failures stay recorded for
// their own syncs.
func (c *blockCache) flushFile(file uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sn := range c.drainSnapshotLocked(file) {
		for {
			el, ok := c.entries[sn.e.id]
			gone := !ok || el.Value.(*cacheEntry) != sn.e
			if gone || sn.e.state == stateClean || sn.e.flushes >= sn.need {
				break
			}
			if sn.e.state == stateDirty {
				f, start, items := c.claimRunFromLocked(sn.e)
				c.mu.Unlock()
				c.flushRun(f, start, items)
				c.mu.Lock()
				continue
			}
			c.cond.Wait()
		}
	}
	err := c.flushErrByFile[file]
	delete(c.flushErrByFile, file)
	return err
}

// close drains staged writes, stops the flushers and returns every cached
// block to the pool (server shutdown).
func (c *blockCache) close() {
	c.drain()
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.flushWG.Wait()
	c.mu.Lock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		el.Value.(*cacheEntry).buf.Release()
	}
	c.lru.Init()
	clear(c.entries)
	clear(c.fileBlocks)
	c.mu.Unlock()
}

func (c *blockCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
