package rfs

import (
	"maps"
	"math/rand"
	"testing"

	"vkernel/internal/bufpool"
)

// newTestCache is a cache with no flushers and no dirty budget, so a
// test decides when each flush runs and never blocks in stage.
func newTestCache(capacity, blockSize int) *blockCache {
	return newBlockCache(capacity, blockSize, 0, 0, func(uint32, int64, []byte) error { return nil })
}

// flushOne claims and writes back one run of dirty blocks, as a flusher
// would; it reports whether there was one.
func flushOne(c *blockCache) bool {
	c.mu.Lock()
	if len(c.dirty) == 0 {
		c.mu.Unlock()
		return false
	}
	file, start, items := c.claimRunLocked()
	c.mu.Unlock()
	c.flushRun(file, start, items)
	return true
}

func putBlock(c *blockCache, id blockID) {
	b := bufpool.Get(c.blockSize)
	c.put(id, b, c.snapshot(id), c.blockSize)
	b.Release()
}

func stageBlock(t *testing.T, c *blockCache, id blockID) {
	t.Helper()
	b := bufpool.Get(c.blockSize)
	if err := c.stage(id, b, 0, c.blockSize, nil, 0, c.snapshot(id), 0); err != nil {
		t.Fatal(err)
	}
	b.Release()
}

// checkFileBlocks asserts that fileBlocks counts exactly the entries of
// each file and that the counts add up to the cache's length.
func checkFileBlocks(t *testing.T, c *blockCache, step int, op string) {
	t.Helper()
	c.mu.Lock()
	want := make(map[uint32]int)
	for id := range c.entries {
		want[id.file]++
	}
	got, sum := maps.Clone(c.fileBlocks), 0
	for _, n := range got {
		sum += n
	}
	lruLen := c.lru.Len()
	c.mu.Unlock()
	if !maps.Equal(got, want) {
		t.Fatalf("step %d (%s): fileBlocks = %v, entries per file = %v", step, op, got, want)
	}
	if n := c.len(); sum != n || lruLen != n {
		t.Fatalf("step %d (%s): fileBlocks sum to %d, len() = %d", step, op, sum, n)
	}
}

// TestFileBlocksCountsEntries runs a seeded random mix of every
// operation that inserts or deletes a cache entry and checks the
// per-file counts after each step.
func TestFileBlocksCountsEntries(t *testing.T) {
	outstanding := bufpool.Outstanding()
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newTestCache(16, 512) // small: puts and stages evict
		ops := []string{"put", "stage", "flush", "invalidate", "truncate", "lend"}
		for step := 0; step < 3000; step++ {
			id := blockID{file: uint32(rng.Intn(4)), block: uint32(rng.Intn(24))}
			op := ops[rng.Intn(len(ops))]
			switch op {
			case "put":
				putBlock(c, id)
			case "stage":
				stageBlock(t, c, id)
			case "flush":
				flushOne(c)
			case "invalidate":
				c.invalidate(id)
			case "truncate":
				if err := c.truncate(id.file, func() error { return nil }); err != nil {
					t.Fatal(err)
				}
			case "lend":
				slots := make([]*bufpool.Buf, 1+rng.Intn(8))
				c.lend(id.file, id.block, slots)
				for _, b := range slots {
					b.Release()
				}
			}
			checkFileBlocks(t, c, step, op)
		}
		for flushOne(c) {
		}
		c.close()
		checkFileBlocks(t, c, -1, "close")
		if c.len() != 0 {
			t.Fatalf("seed %d: %d entries after close", seed, c.len())
		}
	}
	if got := bufpool.Outstanding(); got != outstanding {
		t.Fatalf("bufpool outstanding %d -> %d", outstanding, got)
	}
}

// TestLendMatchesGetEnd: lending a train's blocks in one call hands out
// the same buffers, clean, dirty and flushing alike, and counts the same
// hits and misses as probing each block with getEnd.
func TestLendMatchesGetEnd(t *testing.T) {
	const file, blocks = 7, 40
	c := newTestCache(64, 512)
	for _, b := range []uint32{1, 2, 9, 30} {
		putBlock(c, blockID{file: file, block: b})
	}
	for _, b := range []uint32{3, 17, 18, 39} {
		stageBlock(t, c, blockID{file: file, block: b})
	}
	// Claim 17..18 as an in-flight flush run; 3 and 39 stay dirty.
	c.mu.Lock()
	f, start, items := c.claimRunFromLocked(c.dirty[blockID{file: file, block: 17}])
	c.mu.Unlock()
	if len(items) != 2 {
		t.Fatalf("claimed %d blocks, want 2", len(items))
	}
	putBlock(c, blockID{file: file + 1, block: 5}) // another file's block is never lent

	for _, r := range []struct{ first, n uint32 }{{0, blocks}, {2, 16}, {31, 8}, {40, 20}} {
		hits, misses := c.hits.Load(), c.misses.Load()
		slots := make([]*bufpool.Buf, r.n)
		c.lend(file, r.first, slots)
		lendHits, lendMisses := c.hits.Load()-hits, c.misses.Load()-misses

		hits, misses = c.hits.Load(), c.misses.Load()
		for i, lent := range slots {
			b, _, ok := c.getEnd(blockID{file: file, block: r.first + uint32(i)})
			if ok != (lent != nil) || (ok && b != lent) {
				t.Fatalf("range %v block %d: lend gave %p, getEnd %p (ok %v)", r, r.first+uint32(i), lent, b, ok)
			}
			b.Release()
			lent.Release()
		}
		if h, m := c.hits.Load()-hits, c.misses.Load()-misses; h != lendHits || m != lendMisses {
			t.Fatalf("range %v: lend counted %d hits %d misses, getEnd %d and %d", r, lendHits, lendMisses, h, m)
		}
	}
	c.flushRun(f, start, items)
	for flushOne(c) {
	}
	c.close()
}
