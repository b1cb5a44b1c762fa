package rfs

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/obs"
	"vkernel/internal/rfs/lru"
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
// Entries sit in an lru.List, the allocation-free recency list the
// client cache shares; the dirty blocks no flusher has claimed form a
// FIFO linked through the same slots. Slots are reused, so code that
// drops c.mu and comes back to an entry (a flush completing, a drain
// waiting) names it by slot and incarnation. A write arrives as a train
// (stage), staged under one lock with one wakeup of the flushers, so
// they find it whole and write it back as one run.
//
// The cache is for pages (§6.1): a block a large write newly caches is
// write-behind-only (cacheEntry.wbOnly), left out of capacity so that
// staging a stream evicts no page, and dropped by the flush that writes
// it back cleanly; the store, on the OS page cache, serves it after. A
// page read or page write of it before then makes it a page.
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
	lru       *lru.List[blockID, cacheEntry]
	// fileBlocks counts entries per file; a file with none is absent.
	fileBlocks map[uint32]int
	wbOnly     int // write-behind-only entries; the dirty budget bounds them

	// Write-behind state, guarded by mu. qHead and qTail are the oldest
	// and newest staged blocks no flusher has claimed yet; dirtyCount
	// counts every non-clean entry (dirty + flushing), the quantity the
	// budget bounds; fileDirty is the same count per file. staged tracks
	// each file's write high-water mark so size queries and bounds checks
	// see unflushed extensions; once a file has no non-clean blocks the
	// store covers the mark and the entry is pruned (the maps stay
	// proportional to in-flight work, not to every file id ever written).
	qHead, qTail int32
	dirtyCount   int
	fileDirty    map[uint32]int
	staged       map[uint32]int64
	closed       bool
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
	wbDrops       atomic.Int64 // write-behind-only blocks dropped at write-back
}

type cacheEntry struct {
	buf     *bufpool.Buf
	end     int // valid bytes: in-file extent (clean), flush extent (dirty)
	state   int
	redirty bool // staged again while its flush was in flight
	wbOnly  bool // a large write's, no page access since: dropped once written back
	flushes int  // completed write-backs; lets a drain spot "flushed since"
	// trace is the last staging writer's trace id (0 = untraced); the
	// flusher that writes the entry back logs the flush under it, so a
	// traced write's timeline covers its asynchronous write-back too.
	trace uint32
	// qprev and qnext link a dirty entry into the unclaimed FIFO.
	qprev, qnext int32
}

// flushItem is one claimed block of a flush run: the entry's slot and
// incarnation plus a retained snapshot of the buffer and extent being
// written, so completion can tell whether the entry was re-staged or
// invalidated meanwhile.
type flushItem struct {
	slot  int32
	inc   uint32
	buf   *bufpool.Buf
	end   int
	trace uint32
}

// spare is a pre-fetched store image of a block a stage covers only in
// part (buf nil: the block has no prior contents), with the block's
// generation snapshotted before the fetch.
type spare struct {
	buf *bufpool.Buf
	end int
	gen uint64
}

// newBlockCache builds the cache and starts its flushers; write is their
// store write-back hook.
func newBlockCache(capacity, blockSize, budget, flushers int, write func(file uint32, off int64, p []byte) error) *blockCache {
	c := &blockCache{
		capacity:       capacity,
		blockSize:      blockSize,
		budget:         budget,
		maxRun:         64 * 1024 / blockSize, // one flush write covers ≤ 64 KB (a pooled staging class)
		lru:            lru.New[blockID, cacheEntry](),
		fileBlocks:     make(map[uint32]int),
		qHead:          lru.Nil,
		qTail:          lru.Nil,
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
// dirty ones). Callers must not mutate the block's bytes. A page read
// (page) makes a write-behind-only block a page.
func (c *blockCache) getEnd(id blockID, page bool) (*bufpool.Buf, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.lru.Find(id)
	if !ok {
		c.misses.Add(1)
		return nil, 0, false
	}
	c.hits.Add(1)
	c.lru.Touch(s)
	e := c.lru.Val(s)
	if page {
		c.unmarkLocked(e)
	}
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
		if s, ok := c.lru.Find(blockID{file: file, block: first + uint32(i)}); ok {
			c.lru.Touch(s)
			slots[i] = c.lru.Val(s).buf.Retain()
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
	if s, ok := c.lru.Find(id); ok {
		e := c.lru.Val(s)
		if e.state != stateClean {
			return // never clobber staged bytes with store bytes
		}
		e.buf.Release()
		e.buf = buf.Retain()
		e.end = end
		c.lru.Touch(s)
		return
	}
	c.lru.Insert(id, cacheEntry{buf: buf.Retain(), end: end})
	c.fileBlocks[id.file]++
	c.evictExcessLocked()
}

// stage installs a train as the newest contents of blocks first,
// first+1, ... of file for write-behind, under one lock and with one
// wakeup of the flushers, so they claim the train whole. bufs[i] holds
// block first+i; the payload fills it, except that the head block's
// starts at payStart and the tail block's ends at payEnd. stage
// completes each image around its payload under the lock — from the
// current cache entry when present (which may itself be dirty: staged
// writes merge in order), else from the head or tail spare (head for a
// one-block train), else zeros. Each entry is marked dirty and pinned
// until a flusher writes buf.Data[:end] back, where end covers both the
// payload and whatever older valid bytes the image preserves. The caller
// keeps its references on bufs (the cache retains its own) and must not
// touch their bytes after stage returns — they now back readers.
//
// A spare whose block generation has moved while the block has no entry
// (a concurrent write was staged, flushed and evicted since the caller
// snapshotted) is stale: stage stops there with errStaleSpare rather
// than resurrect the pre-write image, and the caller refetches and
// stages the rest. stage returns how many blocks it staged.
//
// A block a large write (large) newly caches is write-behind-only; a
// page write makes every block it stages a page.
//
// stage blocks while the dirty budget is exhausted — that is the
// write-behind backpressure: writers run ahead of the store by at most
// budget blocks, then throttle to flush speed. A train longer than the
// budget is staged part by part as the flushers free room.
func (c *blockCache) stage(file, first uint32, bufs []*bufpool.Buf, payStart, payEnd int, head, tail spare, trace uint32, large bool) (n int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The per-file counts and the high-water mark are settled once per
	// train, and before a wait, when others may look at them.
	added, dirtied, hw := 0, 0, int64(0)
	settle := func() {
		if added > 0 {
			c.fileBlocks[file] += added
		}
		if dirtied > 0 {
			c.fileDirty[file] += dirtied
		}
		if hw > c.staged[file] {
			c.staged[file] = hw
		}
		added, dirtied = 0, 0
	}
	for ; n < len(bufs); n++ {
		id := blockID{file: file, block: first + uint32(n)}
		lo, hi, sp := 0, c.blockSize, &tail
		if n == 0 {
			lo, sp = payStart, &head
		}
		if n == len(bufs)-1 {
			hi = payEnd
		}
		s, ok := c.lru.Find(id)
		if c.budget > 0 && c.dirtyCount >= c.budget && (!ok || c.lru.Val(s).state == stateClean) {
			settle() // only a block not yet accounted grows dirtyCount
			c.cond.Broadcast()
			for !c.closed && c.dirtyCount >= c.budget {
				c.cond.Wait()
			}
			s, ok = c.lru.Find(id)
		}
		if c.closed {
			err = errCacheClosed
			break
		}
		var old []byte
		oldEnd := 0
		if ok {
			old, oldEnd = c.lru.Val(s).buf.Data, c.lru.Val(s).end
		} else if lo > 0 || hi < c.blockSize {
			if c.genOf(id).Load() != sp.gen {
				err = errStaleSpare
				break
			}
			if sp.buf != nil {
				old, oldEnd = sp.buf.Data, sp.end
			}
		} // else the payload covers the block
		c.genOf(id).Add(1)
		end := max(hi, oldEnd)
		fillAround(bufs[n].Data, lo, hi, old, oldEnd)

		if !ok {
			s = c.lru.Insert(id, cacheEntry{wbOnly: large})
			added++
			if large {
				c.wbOnly++
			}
		}
		e := c.lru.Val(s)
		if !large {
			c.unmarkLocked(e)
		}
		e.buf.Release()
		e.buf, e.end, e.trace = bufs[n].Retain(), end, trace
		switch e.state {
		case stateClean:
			e.state = stateDirty
			c.enqueueLocked(s)
			c.dirtyCount++
			dirtied++
		case stateFlushing:
			e.redirty = true
		} // a dirty entry is queued already; its flush takes the new buffer
		c.lru.Touch(s)
		hw = max(hw, int64(id.block)*int64(c.blockSize)+int64(end))
	}
	settle()
	if n > 0 {
		c.evictExcessLocked()
		c.cond.Broadcast()
	}
	return n, err
}

// fillAround completes a staged block image: bytes outside
// [payStart:payEnd) come from old (valid to oldEnd) where available and
// zeros elsewhere — including the tail past the valid extent, which
// readers receive too (getBlock's contract is a zero-padded full block)
// — so a pooled buffer never leaks a previous tenant's bytes into the
// cache or the store.
func fillAround(dst []byte, payStart, payEnd int, old []byte, oldEnd int) {
	clear(dst[copy(dst[:payStart], old[:min(payStart, oldEnd)]):payStart])
	if oldEnd > payEnd {
		copy(dst[payEnd:oldEnd], old[payEnd:oldEnd])
	}
	clear(dst[max(payEnd, oldEnd):])
}

// unmarkLocked clears an entry's write-behind-only mark, making it a
// page (or before unlinking it). Caller holds c.mu.
func (c *blockCache) unmarkLocked(e *cacheEntry) {
	if e.wbOnly {
		e.wbOnly = false
		c.wbOnly--
	}
}

// evictExcessLocked evicts least-recently-used clean entries until the
// pages are back within capacity. Dirty and flushing blocks are never
// evicted — dropping one would lose acknowledged writes — so under a
// write burst the cache may transiently hold capacity + budget blocks.
func (c *blockCache) evictExcessLocked() {
	for s := c.lru.Back(); s != lru.Nil && c.lru.Len()-c.wbOnly > c.capacity; {
		prev := c.lru.Prev(s)
		if c.lru.Val(s).state == stateClean {
			c.unlinkLocked(s)
		}
		s = prev
	}
}

// enqueueLocked appends the entry at s to the unclaimed FIFO. Caller
// holds c.mu.
func (c *blockCache) enqueueLocked(s int32) {
	e := c.lru.Val(s)
	e.qprev, e.qnext = c.qTail, lru.Nil
	if c.qTail == lru.Nil {
		c.qHead = s
	} else {
		c.lru.Val(c.qTail).qnext = s
	}
	c.qTail = s
}

// dequeueLocked takes the entry at s out of the unclaimed FIFO. Caller
// holds c.mu.
func (c *blockCache) dequeueLocked(s int32) {
	e := c.lru.Val(s)
	if e.qprev == lru.Nil {
		c.qHead = e.qnext
	} else {
		c.lru.Val(e.qprev).qnext = e.qnext
	}
	if e.qnext == lru.Nil {
		c.qTail = e.qprev
	} else {
		c.lru.Val(e.qnext).qprev = e.qprev
	}
}

// unlinkLocked drops an entry and the cache's reference on its buffer.
func (c *blockCache) unlinkLocked(s int32) {
	file, buf := c.lru.Key(s).file, c.lru.Val(s).buf
	c.unmarkLocked(c.lru.Val(s))
	c.lru.Remove(s)
	if c.fileBlocks[file]--; c.fileBlocks[file] == 0 {
		delete(c.fileBlocks, file)
	}
	buf.Release()
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
	if s, ok := c.lru.Find(id); ok {
		c.removeLocked(s)
	}
}

// dropNonCleanLocked accounts k blocks of file settling back to clean
// (or being discarded); when they were the file's last non-clean blocks,
// the store size now covers the staged high-water mark and the per-file
// tracking is pruned. Caller holds c.mu.
func (c *blockCache) dropNonCleanLocked(file uint32, k int) {
	c.dirtyCount -= k
	if n := c.fileDirty[file] - k; n > 0 {
		c.fileDirty[file] = n
	} else {
		delete(c.fileDirty, file)
		delete(c.staged, file)
	}
}

// removeLocked drops an entry and settles its write-behind accounting.
// A flushing entry's dirtyCount is left to its flusher's completion,
// which finds the entry no longer Live and writes the orphaned bytes off.
func (c *blockCache) removeLocked(s int32) {
	if c.lru.Val(s).state == stateDirty {
		c.dequeueLocked(s)
		c.dropNonCleanLocked(c.lru.Key(s).file, 1)
		c.cond.Broadcast()
	}
	c.unlinkLocked(s)
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
		for s := c.lru.Front(); s != lru.Nil; {
			next := c.lru.Next(s)
			if c.lru.Key(s).file == file {
				if c.lru.Val(s).state == stateFlushing {
					inflight = true
				} else {
					c.removeLocked(s)
				}
			}
			s = next
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
// blocks of one file, oldest staged first, and writes each run back with
// a single store write.
func (c *blockCache) flusher() {
	defer c.flushWG.Done()
	var items []flushItem
	for {
		c.mu.Lock()
		for !c.closed && c.qHead == lru.Nil {
			c.cond.Wait()
		}
		if c.qHead == lru.Nil {
			// Closed with nothing left to drain.
			c.mu.Unlock()
			return
		}
		var file, start uint32
		file, start, items = c.claimRunFromLocked(c.qHead, items[:0])
		c.mu.Unlock()
		c.flushRun(file, start, items)
	}
}

// claimRunFromLocked extends the dirty entry at seed into the maximal run
// of consecutive dirty blocks of the same file (capped at maxRun, and a
// partially valid block can only end a run), appended to items. Every
// claimed entry leaves the FIFO for stateFlushing with its buffer
// retained, so the run's bytes stay alive and no other flusher can claim
// them. Caller holds c.mu.
func (c *blockCache) claimRunFromLocked(seed int32, items []flushItem) (file uint32, start uint32, _ []flushItem) {
	id := c.lru.Key(seed)
	file = id.file
	// dirtyAt returns block blk's slot and entry if it is dirty.
	dirtyAt := func(blk uint32) (int32, *cacheEntry) {
		if s, ok := c.lru.Find(blockID{file: file, block: blk}); ok {
			if e := c.lru.Val(s); e.state == stateDirty {
				return s, e
			}
		}
		return lru.Nil, nil
	}
	// Walk back to the run's start: every block before the seed becomes
	// an interior block of the run, so it must be fully valid.
	first := id.block
	for steps := 1; steps < c.maxRun && first > 0; steps++ {
		if _, e := dirtyAt(first - 1); e == nil || e.end != c.blockSize {
			break
		}
		first--
	}
	// Collect forward; a partially valid block can only end the run.
	for blk := first; len(items) < c.maxRun; blk++ {
		s, e := dirtyAt(blk)
		if e == nil {
			break
		}
		e.state = stateFlushing
		c.dequeueLocked(s)
		items = append(items, flushItem{slot: s, inc: c.lru.Inc(s), buf: e.buf.Retain(), end: e.end, trace: e.trace})
		if e.end != c.blockSize {
			break
		}
	}
	return file, first, items
}

// flushRun writes one claimed run back to the store as a single
// contiguous write, then settles each block: back to clean normally,
// dropped if it was write-behind-only and written cleanly, back to dirty
// if it was re-staged while the flush was in flight, or written off if it
// was invalidated.
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
	settled, dropped := 0, 0 // blocks no longer non-clean; those unlinked
	for _, it := range items {
		if !c.lru.Live(it.slot, it.inc) {
			// Invalidated while flushing, its slot maybe reused since;
			// its accounting was deferred to us.
			settled++
		} else if e := c.lru.Val(it.slot); e.redirty {
			e.flushes++
			e.redirty = false
			e.state = stateDirty
			c.enqueueLocked(it.slot)
		} else if e.wbOnly && err == nil {
			c.unlinkLocked(it.slot)
			settled++
			dropped++
		} else {
			// On a write error the block still goes clean — retrying
			// forever would wedge the budget; the error is sticky until
			// the next Flush reports it and FlushErrors counts it.
			e.flushes++
			e.state = stateClean
			c.unmarkLocked(e)
			settled++
		}
		it.buf.Release()
	}
	if settled > 0 {
		c.dropNonCleanLocked(file, settled)
	}
	c.wbDrops.Add(int64(dropped))
	if err != nil && c.flushErrByFile[file] == nil {
		c.flushErrByFile[file] = err
	}
	c.evictExcessLocked()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// flushAll drains the cache, then returns — and clears — the first
// flush error since the previous flushAll. The server's Flush and OpSync
// call this.
func (c *blockCache) flushAll() error {
	c.drain(0)
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

// flushFile drains one file's staged blocks (OpSync with a file id), the
// per-file sync of a multi-tenant server, and returns — and clears —
// only this file's sticky flush error; other files' failures stay
// recorded for their own syncs.
func (c *blockCache) flushFile(file uint32) error {
	c.drain(file)
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.flushErrByFile[file]
	delete(c.flushErrByFile, file)
	return err
}

// drain blocks until every block of file (of every file, for 0) staged
// before the call has been written back (or written off, or discarded by
// a truncate). Blocks staged while the drain runs do NOT extend it: a
// sync promises durability for the writes acknowledged before it, so a
// drain terminates even while other clients keep writing. It is
// self-servicing — while a snapshot block is still unclaimed it claims
// and flushes the run itself, so a sync never queues behind flushers
// parked inside another file's slow store writes; only blocks already
// claimed by a concurrent flush are waited out. It leaves the sticky
// flush errors to the syncs that report them: a replication snapshot
// drains too.
func (c *blockCache) drain(file uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var items []flushItem
	for _, sn := range c.drainSnapshotLocked(file) {
		// An entry no longer Live was discarded since the snapshot, or
		// written back and dropped as write-behind-only.
		for c.lru.Live(sn.slot, sn.inc) {
			e := c.lru.Val(sn.slot)
			if e.state == stateClean || e.flushes >= sn.need {
				break // written back since the snapshot
			}
			if e.state == stateDirty {
				var f, start uint32
				f, start, items = c.claimRunFromLocked(sn.slot, items[:0])
				c.mu.Unlock()
				c.flushRun(f, start, items)
				c.mu.Lock()
				continue
			}
			c.cond.Wait()
		}
	}
}

// drainSnap is one entry a drain waits on: need is the flush count at
// which the snapshot-time bytes are on the store.
type drainSnap struct {
	slot int32
	inc  uint32
	need int
}

// drainSnapshotLocked collects the non-clean entries a drain must wait
// for — all of them, or only one file's (file != 0). Caller holds c.mu.
func (c *blockCache) drainSnapshotLocked(file uint32) []drainSnap {
	snaps := make([]drainSnap, 0, c.dirtyCount)
	for s := c.lru.Front(); s != lru.Nil; s = c.lru.Next(s) {
		e := c.lru.Val(s)
		if e.state == stateClean || (file != 0 && c.lru.Key(s).file != file) {
			continue
		}
		need := e.flushes + 1
		if e.state == stateFlushing && e.redirty {
			// The in-flight flush carries a superseded buffer; the bytes
			// acknowledged before this drain are in the entry's current
			// buffer, which only the NEXT flush writes.
			need++
		}
		snaps = append(snaps, drainSnap{s, c.lru.Inc(s), need})
	}
	return snaps
}

// close drains staged writes, stops the flushers and returns every cached
// block to the pool (server shutdown).
func (c *blockCache) close() {
	c.drain(0)
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.flushWG.Wait()
	c.mu.Lock()
	for s := c.lru.Front(); s != lru.Nil; s = c.lru.Front() {
		c.unlinkLocked(s)
	}
	c.mu.Unlock()
}

func (c *blockCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
