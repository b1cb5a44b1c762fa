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

// blockCache is the server's in-memory block cache with LRU replacement
// and write-behind (§6.2's server-side buffering).
//
// Every write is staged as an extent (stageExtent): one pooled buffer of
// the whole-block images of consecutive blocks of one file, acknowledged
// at once, written back later by a flusher with one store write straight
// from it and then released. A page write (§6.1) is an extent of one
// block whose cache entry takes the extent's buffer itself, so the page
// stays cached after its write-back; a large write's train is one
// extent, which leaves the cache once written back, so a stream neither
// fills nor evicts the page cache.
//
// Entries sit in an lru.List, the allocation-free recency list the
// client cache shares, and are images only: a block's bytes not yet on
// the store are in an extent too, so any entry may be evicted. Readers
// find a block's newest bytes in its entry, else in the newest extent
// covering it, else in the store; an extent staged over cached blocks
// puts its bytes in their entries, so an entry is never older than an
// extent over it. A pending extent a newer one covers whole is dropped
// unwritten, and overlapping write-backs reach the store in staging
// order: an extent is not written back while an older overlapping one
// is unwritten.
//
// Blocks are pooled, reference-counted buffers. The cache holds one
// reference per entry and extent; get hands the caller another, so a
// block lent to an in-flight reply or bulk transfer survives
// invalidation, eviction or a staged overwrite — the pool cannot recycle
// it until the borrower's Release — while the cache itself moves on
// immediately. Every cached buffer is immutable while reachable by
// readers: a write never mutates an entry's bytes in place, it stages a
// freshly filled buffer and swaps it in under the lock (copy-on-write),
// so concurrent readers keep a consistent pre-write snapshot exactly as
// a reply already on the wire would.
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
	budget    int // max non-clean blocks before staging applies backpressure
	lru       *lru.List[blockID, cacheEntry]
	// fileBlocks counts entries per file; a file with none is absent.
	fileBlocks map[uint32]int

	// ext holds the unwritten extents, newest first, keyed by their
	// stamp on the staging clock.
	ext   *lru.List[uint64, extent]
	stamp uint64

	// Write-behind state, guarded by mu. A block is non-clean while an
	// unwritten extent covers it; dirtyCount counts each non-clean block
	// once, the quantity the budget bounds, and fileDirty is the same
	// count per file. staged tracks each file's write high-water mark so
	// size queries and bounds checks see unflushed extensions; once a
	// file has no non-clean blocks the store covers the mark and the
	// entry is pruned (the maps stay proportional to in-flight work, not
	// to every file id ever written) — after a failed write-back, only
	// once a sync has reported the failure.
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
	// receives a span event per write-back of a traced write — the
	// asynchronous tail of a traced write's timeline. Nil (standalone
	// cache tests) disables flush tracing.
	ring *obs.TraceRing

	hits          atomic.Int64
	misses        atomic.Int64
	flushRuns     atomic.Int64
	flushedBlocks atomic.Int64
	flushErrs     atomic.Int64
	wbDrops       atomic.Int64 // extent blocks that left the cache at write-back
}

// cacheEntry is one cached block image, valid to end.
type cacheEntry struct {
	buf *bufpool.Buf
	end int
}

// extent is one staged write: blocks first..first+n-1 of file, their
// images back to back from buf.Data[off:], the last one valid to end;
// flushing once a flusher has claimed it. trace is the writer's trace id
// (0 = untraced): its write-back is logged under it, so a traced write's
// timeline covers its asynchronous tail.
type extent struct {
	buf            *bufpool.Buf
	off, end       int
	file, first, n uint32
	flushing       bool
	trace          uint32
	since          uint64 // the oldest stamp whose bytes it carries (drain)
}

// overlaps reports whether x shares a block with blocks [lo, lo+n) of file.
func (x *extent) overlaps(file, lo, n uint32) bool {
	return x.file == file && x.first < lo+n && lo < x.first+x.n
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
		lru:            lru.New[blockID, cacheEntry](),
		fileBlocks:     make(map[uint32]int),
		ext:            lru.New[uint64, extent](),
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

// getEnd returns the block's newest staged or cached image with a
// reference for the caller (Release when done), and its valid-byte
// extent (the in-file bytes of a store image, the staged bytes of a
// write's). Callers must not mutate the block's bytes. An entry is
// marked most recently used; a block only an extent holds is copied out,
// and cached as a page for a page read (page).
func (c *blockCache) getEnd(id blockID, page bool) (*bufpool.Buf, int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.lru.Find(id); ok {
		c.hits.Add(1)
		c.lru.Touch(s)
		e := c.lru.Val(s)
		return e.buf.Retain(), e.end, true
	}
	x := c.coverLocked(id.file, id.block, 1)
	if x == lru.Nil {
		c.misses.Add(1)
		return nil, 0, false
	}
	c.hits.Add(1)
	img, end := c.imageLocked(c.ext.Val(x), id.block)
	b := bufpool.Get(c.blockSize)
	copy(b.Data, img)
	if page {
		c.lru.Insert(id, cacheEntry{buf: b.Retain(), end: end})
		c.fileBlocks[id.file]++
		c.evictExcessLocked()
	}
	return b, end, true
}

// lend is getEnd for a train's consecutive blocks under one lock, without
// copying: views[i] gets block first+i of file, or nil when neither an
// entry nor an extent holds it, and the buffers behind the views are
// retained and appended to held for the caller to release. Hits and
// misses are counted per block; the entry probing stops once every block
// the cache holds of file is found.
func (c *blockCache) lend(file, first uint32, views [][]byte, held []*bufpool.Buf) []*bufpool.Buf {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(views)
	n := uint32(len(views))
	// Oldest extent first, so a block keeps its newest extent image.
	for x := c.ext.Back(); x != lru.Nil; x = c.ext.Prev(x) {
		if e := c.ext.Val(x); e.overlaps(file, first, n) {
			for b := max(first, e.first); b < min(first+n, e.first+e.n); b++ {
				views[b-first], _ = c.imageLocked(e, b)
			}
			held = append(held, e.buf.Retain())
		}
	}
	for i, found, entries := 0, 0, c.fileBlocks[file]; i < len(views) && found < entries; i++ {
		if s, ok := c.lru.Find(blockID{file: file, block: first + uint32(i)}); ok {
			c.lru.Touch(s)
			b := c.lru.Val(s).buf
			views[i] = b.Data
			held = append(held, b.Retain())
			found++
		}
	}
	hits := 0
	for _, v := range views {
		if v != nil {
			hits++
		}
	}
	c.hits.Add(int64(hits))
	c.misses.Add(int64(len(views) - hits))
	return held
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

// stagedExtents returns the number of extents not yet written back.
func (c *blockCache) stagedExtents() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ext.Len()
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

// stageExtent installs a write's train as the newest contents of blocks
// first..first+n-1 of file for write-behind, their images back to back
// in buf.Data[off:], the payload from payStart in the head block to
// payEnd in the tail block. Head and tail are completed around the
// payload under the lock (completeLocked, from the head and tail spares;
// the head spare serves a one-block train). Each extent is staged under
// one lock with one flusher wakeup: cached entries of its blocks take
// its bytes, a page write (page: one block, buf its image alone) is
// cached as a page, and a pending extent it covers whole is dropped
// unwritten. The cache retains buf; the caller must not touch the staged
// bytes.
//
// Staging waits while the dirty budget is exhausted — the write-behind
// backpressure: writers run ahead of the store by at most budget
// blocks, then throttle to flush speed. It never waits on a write-back
// as such. A train longer than the budget is staged as consecutive
// extents of at most budget blocks, each once the budget has room for
// it. It returns how many blocks it staged; on errStaleSpare the caller
// refetches and stages the rest.
func (c *blockCache) stageExtent(file, first uint32, buf *bufpool.Buf, off int, n uint32, payStart, payEnd int, head, tail spare, trace uint32, page bool) (done uint32, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bs := c.blockSize
	for done < n {
		lo, k := first+done, n-done
		if c.budget > 0 {
			k = min(k, uint32(c.budget))
		}
		var fresh int
		if fresh, err = c.roomLocked(file, lo, k); err != nil {
			return done, err
		}
		at := off + int(done)*bs
		img := buf.Data[at : at+int(k)*bs]
		end := bs
		if done == 0 {
			hi := bs
			if n == 1 {
				hi = payEnd
			}
			if end, err = c.completeLocked(blockID{file: file, block: lo}, img[:bs], payStart, hi, &head); err != nil {
				return done, err
			}
		}
		if done+k == n && n > 1 {
			if end, err = c.completeLocked(blockID{file: file, block: lo + k - 1}, img[len(img)-bs:], 0, payEnd, &tail); err != nil {
				return done, err
			}
		}
		c.stamp++
		e := extent{buf: buf.Retain(), off: at, end: end, file: file, first: lo, n: k, trace: trace, since: c.stamp}
		if page {
			c.cachePageLocked(&e)
		} else if c.fileBlocks[file] > 0 {
			c.coverEntriesLocked(&e)
		}
		// A pending extent this one covers whole is dropped unwritten; this
		// one inherits its oldest bytes, so a drain waiting for them waits
		// for this one.
		for y := c.ext.Front(); y != lru.Nil; {
			old, next := c.ext.Val(y), c.ext.Next(y)
			if !old.flushing && old.file == file && old.first >= lo && old.first+old.n <= lo+k {
				e.since = min(e.since, old.since)
				c.dropExtentLocked(y)
			}
			y = next
		}
		for b := lo; b < lo+k; b++ {
			c.genOf(blockID{file: file, block: b}).Add(1)
		}
		c.ext.Insert(c.stamp, e)
		c.addNonCleanLocked(file, fresh, int64(lo+k-1)*int64(bs)+int64(end))
		done += k
		c.cond.Broadcast()
	}
	return done, nil
}

// roomLocked waits until the budget has room for blocks [lo, lo+n) of
// file and returns how many of them are clean — no unwritten extent
// over them — which staging them adds to dirtyCount. Caller holds c.mu.
func (c *blockCache) roomLocked(file, lo, n uint32) (int, error) {
	for !c.closed {
		fresh := int(n)
		if c.fileDirty[file] > 0 {
			for b := lo; b < lo+n; b++ {
				if c.coverLocked(file, b, 1) != lru.Nil {
					fresh--
				}
			}
		}
		if c.budget <= 0 || c.dirtyCount+fresh <= c.budget {
			return fresh, nil
		}
		c.cond.Wait()
	}
	return 0, errCacheClosed
}

// addNonCleanLocked accounts k blocks of file turning non-clean and
// raises the file's staged high-water mark to hw. Caller holds c.mu.
func (c *blockCache) addNonCleanLocked(file uint32, k int, hw int64) {
	if k > 0 {
		c.dirtyCount += k
		c.fileDirty[file] += k
	}
	if hw > c.staged[file] {
		c.staged[file] = hw
	}
}

// completeLocked completes the staged image img of block id around its
// payload [lo, hi) from the block's newest image — its entry, else the
// newest extent over it, else the spare — and returns its valid extent.
// A stale spare (the block's generation moved since its fetch: a
// concurrent write was staged, flushed and dropped meanwhile) fails with
// errStaleSpare rather than resurrect the pre-write image. Caller holds
// c.mu.
func (c *blockCache) completeLocked(id blockID, img []byte, lo, hi int, sp *spare) (int, error) {
	if lo == 0 && hi == c.blockSize {
		return hi, nil // the payload covers the block
	}
	var old []byte
	oldEnd := 0
	if s, ok := c.lru.Find(id); ok {
		old, oldEnd = c.lru.Val(s).buf.Data, c.lru.Val(s).end
	} else if x := c.coverLocked(id.file, id.block, 1); x != lru.Nil {
		old, oldEnd = c.imageLocked(c.ext.Val(x), id.block)
	} else if c.genOf(id).Load() != sp.gen {
		return 0, errStaleSpare
	} else if sp.buf != nil {
		old, oldEnd = sp.buf.Data, sp.end
	}
	fillAround(img, lo, hi, old, oldEnd)
	return max(hi, oldEnd), nil
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

// cachePageLocked makes a newly staged page write's one-block extent x
// its page's cache entry, inserted if the page has none: the entry takes
// the extent's buffer itself, so caching the page copies nothing. Caller
// holds c.mu.
func (c *blockCache) cachePageLocked(x *extent) {
	id := blockID{file: x.file, block: x.first}
	s, ok := c.lru.Find(id)
	if !ok {
		s = c.lru.Insert(id, cacheEntry{})
		c.fileBlocks[id.file]++
	}
	e := c.lru.Val(s)
	e.buf.Release()
	e.buf, e.end = x.buf.Retain(), x.end
	c.lru.Touch(s)
	c.evictExcessLocked()
}

// coverEntriesLocked puts a newly staged extent's bytes into the cached
// entries of its blocks (copy-on-write), so a warm page stays cached
// with them. Caller holds c.mu.
func (c *blockCache) coverEntriesLocked(x *extent) {
	for b, found, entries := x.first, 0, c.fileBlocks[x.file]; b < x.first+x.n && found < entries; b++ {
		s, ok := c.lru.Find(blockID{file: x.file, block: b})
		if !ok {
			continue
		}
		found++
		img, end := c.imageLocked(x, b)
		nb := bufpool.Get(c.blockSize)
		copy(nb.Data, img)
		e := c.lru.Val(s)
		e.buf.Release()
		e.buf, e.end = nb, end
		c.lru.Touch(s)
	}
}

// coverLocked returns the newest unwritten extent sharing a block with
// blocks [lo, lo+n) of file, or lru.Nil. Caller holds c.mu.
func (c *blockCache) coverLocked(file, lo, n uint32) int32 {
	for x := c.ext.Front(); x != lru.Nil; x = c.ext.Next(x) {
		if c.ext.Val(x).overlaps(file, lo, n) {
			return x
		}
	}
	return lru.Nil
}

// imageLocked returns block blk's image in extent x and its valid extent.
func (c *blockCache) imageLocked(x *extent, blk uint32) ([]byte, int) {
	at := x.off + int(blk-x.first)*c.blockSize
	end := c.blockSize
	if blk == x.first+x.n-1 {
		end = x.end
	}
	return x.buf.Data[at : at+c.blockSize], end
}

// dropExtentLocked releases extent x's buffer and slot. Caller holds
// c.mu.
func (c *blockCache) dropExtentLocked(x int32) {
	c.ext.Val(x).buf.Release()
	c.ext.Remove(x)
}

// evictExcessLocked evicts least-recently-used entries until the cache
// is back within capacity. Any entry may go: a block's bytes not yet
// written back are in an extent too. A page write's entry shares its
// extent's buffer, so the cache holds capacity entries plus the buffers
// of the unwritten extents.
func (c *blockCache) evictExcessLocked() {
	for c.lru.Len() > c.capacity {
		c.unlinkLocked(c.lru.Back())
	}
}

// unlinkLocked drops an entry and the cache's reference on its buffer.
func (c *blockCache) unlinkLocked(s int32) {
	file, buf := c.lru.Key(s).file, c.lru.Val(s).buf
	c.lru.Remove(s)
	if c.fileBlocks[file]--; c.fileBlocks[file] == 0 {
		delete(c.fileBlocks, file)
	}
	buf.Release()
}

// invalidate drops a block (a replica's store-first apply made it stale)
// and stamps the invalidation so in-flight miss fills cannot resurrect
// it. Borrowers of the block are unaffected: only the cache's reference
// is dropped. A replica stages no writes, so no extent covers the block.
func (c *blockCache) invalidate(id blockID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.genOf(id).Add(1)
	if s, ok := c.lru.Find(id); ok {
		c.unlinkLocked(s)
	}
}

// dropNonCleanLocked accounts k blocks of file settling back to clean
// (or being discarded); when they were the file's last non-clean blocks,
// the store size now covers the staged high-water mark and the per-file
// tracking is pruned (pruneStagedLocked). Caller holds c.mu.
func (c *blockCache) dropNonCleanLocked(file uint32, k int) {
	c.dirtyCount -= k
	if n := c.fileDirty[file] - k; n > 0 {
		c.fileDirty[file] = n
	} else {
		delete(c.fileDirty, file)
		c.pruneStagedLocked(file)
	}
}

// pruneStagedLocked drops file's staged mark once nothing of it is
// non-clean and no failed write-back of it is unreported: until a sync
// reports one, the store may lack a file the cache still serves.
func (c *blockCache) pruneStagedLocked(file uint32) {
	if c.fileDirty[file] == 0 && c.flushErrByFile[file] == nil {
		delete(c.staged, file)
	}
}

// truncate drops every cached block and extent of a file — including
// staged-but-unflushed ones: the truncate supersedes the pending writes
// — and then runs create (the store truncation) under the cache lock.
// Extents of the file already claimed by a flusher are waited out
// first, so the store write of pre-truncate bytes is strictly ordered
// before the truncation and can never silently regrow the file
// afterwards. Holding the lock across create stalls the cache for the
// duration of one store call, which a rare administrative operation can
// afford; what it buys is that no stage or claim can slip between the
// drain and the truncation.
func (c *blockCache) truncate(file uint32, create func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for s := c.lru.Front(); s != lru.Nil; {
			next := c.lru.Next(s)
			if c.lru.Key(s).file == file {
				c.unlinkLocked(s)
			}
			s = next
		}
		inflight := false
		for x := c.ext.Front(); x != lru.Nil; {
			e, next := c.ext.Val(x), c.ext.Next(x)
			if e.file == file && e.flushing {
				inflight = true
			} else if e.file == file {
				c.dropExtentLocked(x)
			}
			x = next
		}
		if !inflight {
			break
		}
		c.cond.Wait()
	}
	// Nothing of the file is non-clean any more.
	c.dirtyCount -= c.fileDirty[file]
	delete(c.fileDirty, file)
	delete(c.staged, file)
	c.cond.Broadcast()
	// Blocks of the file may also be mid-fill from the old contents
	// without being cached yet; bump every shard so those inserts drop.
	for i := range c.gens {
		c.gens[i].Add(1)
	}
	return create()
}

// flusher is one write-behind worker: it claims the oldest extent it
// may write back and writes it back with a single store write.
func (c *blockCache) flusher() {
	defer c.flushWG.Done()
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if x := c.nextLocked(); x != lru.Nil {
			c.flushExtentLocked(x)
		} else if c.closed {
			return // nothing left to drain
		} else {
			c.cond.Wait()
		}
	}
}

// nextLocked returns the oldest ready extent, or lru.Nil. Caller holds
// c.mu.
func (c *blockCache) nextLocked() int32 {
	for x := c.ext.Back(); x != lru.Nil; x = c.ext.Prev(x) {
		if c.readyLocked(x) {
			return x
		}
	}
	return lru.Nil
}

// readyLocked reports whether extent x is pending and no older unwritten
// extent overlaps it. Caller holds c.mu.
func (c *blockCache) readyLocked(x int32) bool {
	e := c.ext.Val(x)
	if e.flushing {
		return false
	}
	for y := c.ext.Next(x); y != lru.Nil; y = c.ext.Next(y) {
		if c.ext.Val(y).overlaps(e.file, e.first, e.n) {
			return false
		}
	}
	return true
}

// flushExtentLocked claims ready extent x and writes it back with one
// store write straight from its buffer, dropping c.mu meanwhile, then
// settles its blocks: one a newer extent also covers is left to that
// one, one with an entry stays cached as a page, and the rest leave the
// cache — or, when the write failed, stay readable as cached pages,
// their bytes being nowhere else. Caller holds c.mu.
func (c *blockCache) flushExtentLocked(x int32) {
	bs := c.blockSize
	c.ext.Val(x).flushing = true
	e := *c.ext.Val(x) // the slab may move while unlocked
	c.mu.Unlock()
	err := c.writeBack(e.file, e.first, e.buf.Data[e.off:e.off+int(e.n-1)*bs+e.end], int(e.n), e.trace)
	c.mu.Lock()
	c.ext.Remove(x)
	settled, dropped := int(e.n), int(e.n)
	if err != nil || c.fileBlocks[e.file] > 0 || c.coverLocked(e.file, e.first, e.n) != lru.Nil {
		settled, dropped = 0, 0
		for b := e.first; b < e.first+e.n; b++ {
			id := blockID{file: e.file, block: b}
			if c.coverLocked(e.file, b, 1) != lru.Nil {
				continue // a newer extent settles it
			}
			settled++
			if _, ok := c.lru.Find(id); ok {
				continue // stays cached as a page
			} else if err == nil {
				dropped++
				continue
			}
			img, end := c.imageLocked(&e, b)
			nb := bufpool.Get(bs)
			copy(nb.Data, img)
			c.lru.Insert(id, cacheEntry{buf: nb, end: end})
			c.fileBlocks[e.file]++
		}
	}
	e.buf.Release()
	c.settleLocked(e.file, settled, err)
	c.wbDrops.Add(int64(dropped))
}

// writeBack is one flush's store write of p, blocks blocks from block
// first of file: counted, and timed into the trace ring when it carries a
// traced write.
func (c *blockCache) writeBack(file, first uint32, p []byte, blocks int, trace uint32) error {
	var t0 time.Time
	if trace != 0 && c.ring != nil {
		t0 = time.Now()
	}
	err := c.write(file, int64(first)*int64(c.blockSize), p)
	if !t0.IsZero() {
		c.ring.Record(trace, "rfs.flush", uint64(file)<<32|uint64(blocks), time.Since(t0))
	}
	c.flushRuns.Add(1)
	c.flushedBlocks.Add(int64(blocks))
	if err != nil {
		c.flushErrs.Add(1)
	}
	return err
}

// settleLocked ends a write-back of file: k of its blocks are clean
// again, and a failure is kept for the next sync of the file — retrying
// forever would wedge the budget. Caller holds c.mu.
func (c *blockCache) settleLocked(file uint32, k int, err error) {
	if err != nil && c.flushErrByFile[file] == nil {
		c.flushErrByFile[file] = err
	}
	if k > 0 {
		c.dropNonCleanLocked(file, k)
	}
	c.evictExcessLocked()
	c.cond.Broadcast()
}

// flushAll drains the cache, then clears every file's sticky flush error
// and returns one of them: whichever failing file the map iteration
// reaches last. The server's Flush and OpSync call this.
func (c *blockCache) flushAll() error {
	c.drain(0)
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	for file, e := range c.flushErrByFile {
		err = e
		delete(c.flushErrByFile, file)
		c.pruneStagedLocked(file)
	}
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
	c.pruneStagedLocked(file)
	return err
}

// drain blocks until every extent of file (of every file, for 0) staged
// before the call has been written back (or written off, or discarded by
// a truncate). Later writes do NOT extend it — a sync promises
// durability for the writes acknowledged before it, so a drain
// terminates even while other clients keep writing — except an extent
// that supersedes one it waits for. It is self-servicing: an extent it
// waits for that no flusher has claimed it writes back itself, so a sync
// never queues behind flushers parked inside another file's slow store
// writes. It leaves the sticky flush errors to the syncs that report
// them: a replication snapshot drains too.
func (c *blockCache) drain(file uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mark := c.stamp
	for x := c.ext.Back(); x != lru.Nil; {
		if e := c.ext.Val(x); e.since > mark || file != 0 && e.file != file {
			x = c.ext.Prev(x)
		} else {
			if !c.serviceLocked(e.file, c.ext.Key(x)) {
				c.cond.Wait()
			}
			x = c.ext.Back()
		}
	}
}

// serviceLocked writes back the oldest ready extent of file staged by
// upTo, itself, and reports whether there was one. Caller holds c.mu.
func (c *blockCache) serviceLocked(file uint32, upTo uint64) bool {
	for x := c.ext.Back(); x != lru.Nil && c.ext.Key(x) <= upTo; x = c.ext.Prev(x) {
		if c.ext.Val(x).file == file && c.readyLocked(x) {
			c.flushExtentLocked(x)
			return true
		}
	}
	return false
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
	for x := c.ext.Front(); x != lru.Nil; x = c.ext.Front() {
		c.dropExtentLocked(x)
	}
	c.mu.Unlock()
}

func (c *blockCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
