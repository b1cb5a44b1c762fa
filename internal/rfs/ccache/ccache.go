// Package ccache is the client-side block cache of the V file service:
// the workstation-local page cache the paper's §6.2 argues a fast IPC
// path makes unnecessary. It is deliberately dumb about consistency —
// it only stores, looks up and drops blocks — so the consistency
// protocol (registration, server-driven invalidation callbacks, lease
// renewal) lives entirely in rfs.CachingClient and the cache itself
// stays reusable and independently testable.
//
// Blocks are pooled, reference-counted buffers (vkernel/internal/bufpool)
// with LRU replacement and a bounded capacity, kept in the same
// slab-backed recency list as the server's block cache (rfs/lru), so a
// hit, an insert and an eviction allocate nothing. Get hands the caller a
// retained reference, so a block being copied out survives a concurrent
// invalidation; Insert copies the caller's bytes into a fresh pooled
// block (the caller keeps its buffer).
//
// Fills race invalidations: the client reads a block from the server,
// loses the CPU, an invalidation callback for a newer write arrives, and
// only then does the fill insert — resurrecting pre-write bytes. As in
// the server cache, every invalidation bumps a generation counter
// (sharded by block id); a fill snapshots the generation before issuing
// the remote read and Insert refuses when it moved. The conservative
// direction is always a dropped insert (a wasted fill), never a stale
// hit.
package ccache

import (
	"sync"
	"sync/atomic"

	"vkernel/internal/bufpool"
	"vkernel/internal/rfs/lru"
)

// Config sizes the cache; the zero value gets defaults.
type Config struct {
	// Blocks bounds the cached block count (0 → 256).
	Blocks int
	// BlockSize is the server's page size in bytes (0 → 512). Only reads
	// of exactly this size are cacheable — partial reads pass through.
	BlockSize int
}

func (c Config) withDefaults() Config {
	if c.Blocks <= 0 {
		c.Blocks = 256
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 512
	}
	return c
}

// Stats is a snapshot of cache activity.
type Stats struct {
	Hits          int64
	Misses        int64
	Inserts       int64
	StaleDrops    int64 // fills refused because the block was invalidated mid-fill
	Invalidations int64 // blocks dropped by Invalidate/InvalidateFile
}

// key names one cached block.
type key struct {
	file  uint32
	block uint32
}

// entry is one cached block: the cache's reference on its buffer.
type entry struct{ buf *bufpool.Buf }

// Cache is a bounded LRU block cache over pooled buffers. All methods are
// safe for concurrent use (the owning client's request path and its
// invalidation-callback process share it).
type Cache struct {
	mu     sync.Mutex
	cfg    Config
	lru    *lru.List[key, entry]
	closed bool

	gens [64]atomic.Uint64 // invalidation stamps, sharded by block id

	hits       atomic.Int64
	misses     atomic.Int64
	inserts    atomic.Int64
	staleDrops atomic.Int64
	invals     atomic.Int64
}

// New builds an empty cache.
func New(cfg Config) *Cache {
	return &Cache{cfg: cfg.withDefaults(), lru: lru.New[key, entry]()}
}

// BlockSize returns the configured page size.
func (c *Cache) BlockSize() int { return c.cfg.BlockSize }

// genOf returns the invalidation-stamp shard for a block id.
func (c *Cache) genOf(k key) *atomic.Uint64 {
	h := (k.file*2654435761 + k.block) * 2654435761
	return &c.gens[h>>26&0x3f]
}

// Snapshot returns the block's current invalidation stamp; take it before
// the remote read of a fill and pass it to Insert.
func (c *Cache) Snapshot(file, block uint32) uint64 {
	return c.genOf(key{file, block}).Load()
}

// Get returns the cached block with a reference for the caller (Release
// when done), marking it most recently used. The block's bytes are shared
// and must not be written; they are always a full BlockSize page.
func (c *Cache) Get(file, block uint32) (*bufpool.Buf, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.lru.Find(key{file, block})
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.lru.Touch(s)
	return c.lru.Val(s).buf.Retain(), true
}

// Contains reports presence without touching recency or hit counters.
func (c *Cache) Contains(file, block uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.lru.Find(key{file, block})
	return ok
}

// Insert caches a full page read (or written) at the given block: data is
// copied into a fresh pooled block, so the caller keeps its buffer. The
// insert is refused when data is not a whole page, when the cache is
// closed, or when the block was invalidated since gen was snapshotted —
// the bytes predate a concurrent write and would be a stale resurrection.
// That last refusal also drops whatever the cache holds for the block:
// when the caller was refreshing its copy after its own write, the copy
// still cached is older than both writes and must not outlive the
// refresh that failed.
func (c *Cache) Insert(file, block uint32, data []byte, gen uint64) {
	if len(data) != c.cfg.BlockSize {
		return
	}
	k := key{file, block}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if c.genOf(k).Load() != gen {
		c.staleDrops.Add(1)
		if s, ok := c.lru.Find(k); ok {
			c.removeLocked(s)
		}
		return
	}
	c.inserts.Add(1)
	b := bufpool.Get(c.cfg.BlockSize)
	copy(b.Data, data)
	if s, ok := c.lru.Find(k); ok {
		// Copy-on-write replace: a fresh buffer swaps in so a reader that
		// Got the old one mid-copy keeps a consistent snapshot.
		e := c.lru.Val(s)
		e.buf.Release()
		e.buf = b
		c.lru.Touch(s)
		return
	}
	c.lru.Insert(k, entry{b})
	for c.lru.Len() > c.cfg.Blocks {
		c.dropLocked(c.lru.Back())
	}
}

// Invalidate drops count blocks starting at first (a remote write made
// them stale) and stamps the invalidation so in-flight fills cannot
// resurrect them. Borrowers of a dropped block are unaffected — only the
// cache's reference is released. A range wider than the cache capacity
// degrades to a whole-file scan instead of touching every block id.
func (c *Cache) Invalidate(file, first, count uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if count > uint32(c.cfg.Blocks) {
		c.invalidateFileLocked(file)
		return
	}
	for i := uint32(0); i < count; i++ {
		k := key{file, first + i}
		c.genOf(k).Add(1)
		if s, ok := c.lru.Find(k); ok {
			c.removeLocked(s)
		}
	}
}

// Purge drops every cached block and stamps every generation shard, so
// in-flight fills cannot resurrect pre-purge bytes. It is the failover
// reset: when a volume moves to a new server, nothing cached under the
// old server's consistency protocol may be served again.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.gens {
		c.gens[i].Add(1)
	}
	for s := c.lru.Front(); s != lru.Nil; s = c.lru.Front() {
		c.removeLocked(s)
	}
}

// InvalidateFile drops every cached block of the file (truncate, lease
// renewal that found a version mismatch).
func (c *Cache) InvalidateFile(file uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidateFileLocked(file)
}

func (c *Cache) invalidateFileLocked(file uint32) {
	// Blocks of the file may be mid-fill without being cached yet; bump
	// every shard so those inserts drop.
	for i := range c.gens {
		c.gens[i].Add(1)
	}
	for s := c.lru.Front(); s != lru.Nil; {
		next := c.lru.Next(s)
		if c.lru.Key(s).file == file {
			c.removeLocked(s)
		}
		s = next
	}
}

// removeLocked drops an invalidated block.
func (c *Cache) removeLocked(s int32) {
	c.invals.Add(1)
	c.dropLocked(s)
}

// dropLocked drops a block and the cache's reference on its buffer.
func (c *Cache) dropLocked(s int32) {
	b := c.lru.Val(s).buf
	c.lru.Remove(s)
	b.Release()
}

// Len returns the cached block count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Inserts:       c.inserts.Load(),
		StaleDrops:    c.staleDrops.Load(),
		Invalidations: c.invals.Load(),
	}
}

// Close releases every cached block and refuses further inserts; Get
// misses from here on. Blocks lent out by Get stay valid until their
// borrowers release them.
func (c *Cache) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for s := c.lru.Front(); s != lru.Nil; s = c.lru.Front() {
		c.dropLocked(s)
	}
}
