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
// hit. A replica's fill can also predate a write it does not race, so
// invalidations fence their shards at the write's sequence (InsertApplied).
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
	StaleDrops    int64 // fills refused because the block was invalidated mid-fill or fenced
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

	gens   [Shards]atomic.Uint64 // invalidation stamps, sharded by block id
	fences [Shards]uint32        // newest sequence fenced per shard (0 = none); guarded by mu

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

const Shards = 64 // number of stamp and fence shards

// Shard returns a block's stamp and fence shard.
func Shard(file, block uint32) int {
	return int((file*2654435761 + block) * 2654435761 >> 26 & (Shards - 1))
}

// Snapshot returns the block's current invalidation stamp; take it before
// the remote read of a fill and pass it to Insert.
func (c *Cache) Snapshot(file, block uint32) uint64 {
	return c.gens[Shard(file, block)].Load()
}

// Fences returns each shard's fence.
func (c *Cache) Fences() [Shards]uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fences
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
	c.insert(key{file, block}, data, gen, false, 0)
}

// InsertApplied is Insert for a fill a replica read after applying
// sequence applied, also refused when the block's shard is fenced later.
func (c *Cache) InsertApplied(file, block uint32, data []byte, gen uint64, applied uint32) {
	c.insert(key{file, block}, data, gen, true, applied)
}

func (c *Cache) insert(k key, data []byte, gen uint64, replica bool, applied uint32) {
	if len(data) != c.cfg.BlockSize {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	s := Shard(k.file, k.block)
	if f := c.fences[s]; c.gens[s].Load() != gen || replica && f != 0 && Newer(f, applied) {
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
// resurrect them; a nonzero seq fences them too. Borrowers of a dropped
// block are unaffected — only the cache's reference is released. A range
// wider than the cache capacity degrades to a whole-file scan.
func (c *Cache) Invalidate(file, first, count, seq uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if count > uint32(c.cfg.Blocks) {
		c.invalidateFileLocked(file, seq)
		return
	}
	for i := uint32(0); i < count; i++ {
		k := key{file, first + i}
		c.stampLocked(Shard(k.file, k.block), seq)
		if s, ok := c.lru.Find(k); ok {
			c.removeLocked(s)
		}
	}
}

// Purge drops every cached block and stamps every generation shard, so
// in-flight fills cannot resurrect pre-purge bytes. It is the failover
// reset: when a volume moves to a new server, nothing cached under the
// old server's consistency protocol may be served again (nor fenced).
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.gens {
		c.gens[i].Add(1)
	}
	c.fences = [Shards]uint32{}
	for s := c.lru.Front(); s != lru.Nil; s = c.lru.Front() {
		c.removeLocked(s)
	}
}

// InvalidateFile drops every cached block of the file (truncate, lease
// renewal that found a version mismatch); seq is as for Invalidate.
func (c *Cache) InvalidateFile(file, seq uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidateFileLocked(file, seq)
}

func (c *Cache) invalidateFileLocked(file, seq uint32) {
	// Blocks of the file may be mid-fill without being cached yet; stamp
	// every shard so those inserts drop.
	for i := range c.gens {
		c.stampLocked(i, seq)
	}
	for s := c.lru.Front(); s != lru.Nil; {
		next := c.lru.Next(s)
		if c.lru.Key(s).file == file {
			c.removeLocked(s)
		}
		s = next
	}
}

// stampLocked bumps shard s's stamp and moves its fence forward to seq.
func (c *Cache) stampLocked(s int, seq uint32) {
	c.gens[s].Add(1)
	if f := c.fences[s]; seq != 0 && (f == 0 || Newer(seq, f)) {
		c.fences[s] = seq
	}
}

// Newer reports whether a is ahead of b in wrapping uint32 arithmetic:
// the file versions and replication sequences a client hears of are
// monotonic at the server but can arrive out of order.
func Newer(a, b uint32) bool { return a != b && a-b < 1<<31 }

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
