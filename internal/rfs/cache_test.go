package rfs

import (
	"maps"
	"math/rand"
	"testing"

	"vkernel/internal/bufpool"
	"vkernel/internal/rfs/lru"
)

// newTestCache is a cache with no flushers and no dirty budget, so a
// test decides when each flush runs and never blocks in stage.
func newTestCache(capacity, blockSize int) *blockCache {
	return newBlockCache(capacity, blockSize, 0, 0, func(uint32, int64, []byte) error { return nil })
}

// flushOne claims and writes back one extent or run of dirty blocks, as
// a flusher would; it reports whether there was one.
func flushOne(c *blockCache) bool {
	c.mu.Lock()
	s, x := c.nextLocked()
	switch {
	case x != lru.Nil:
		c.flushExtentLocked(x)
		c.mu.Unlock()
	case s != lru.Nil:
		file, start, items := c.claimRunFromLocked(s, nil)
		c.mu.Unlock()
		c.flushRun(file, start, items)
	default:
		c.mu.Unlock()
		return false
	}
	return true
}

func putBlock(c *blockCache, id blockID) {
	b := bufpool.Get(c.blockSize)
	c.put(id, b, c.snapshot(id), c.blockSize)
	b.Release()
}

// stageBlock stages one block as a page write.
func stageBlock(t *testing.T, c *blockCache, id blockID) {
	t.Helper()
	b := bufpool.Get(c.blockSize)
	if err := c.stage(id, b, 0, c.blockSize, spare{}, 0); err != nil {
		t.Fatal(err)
	}
	b.Release()
}

// stageExtentOf stages blocks first..first+n-1 as one large write's
// extent, every byte of block b set to fill+b.
func stageExtentOf(t *testing.T, c *blockCache, file, first, n uint32, fill byte) {
	t.Helper()
	b := bufpool.Get(int(n) * c.blockSize)
	for i := range n {
		clear(b.Data[int(i)*c.blockSize : int(i+1)*c.blockSize])
		b.Data[int(i)*c.blockSize] = fill + byte(first+i)
	}
	if k, err := c.stageExtent(file, first, b, 0, n, 0, c.blockSize, spare{}, spare{}, 0); k != n || err != nil {
		t.Fatalf("staged %d of %d blocks: %v", k, n, err)
	}
	b.Release()
}

// checkFileBlocks asserts that fileBlocks counts exactly the entries of
// each file and that the counts add up to the cache's length, and that
// dirtyCount and fileDirty count each block a non-clean entry or an
// unwritten extent holds once.
func checkFileBlocks(t *testing.T, c *blockCache, step int, op string) {
	t.Helper()
	c.mu.Lock()
	want, lruLen := make(map[uint32]int), 0
	nonClean := make(map[blockID]bool)
	for s := c.lru.Front(); s != lru.Nil; s = c.lru.Next(s) {
		want[c.lru.Key(s).file]++
		lruLen++
		if c.lru.Val(s).state != stateClean {
			nonClean[c.lru.Key(s)] = true
		}
	}
	for x := c.ext.Front(); x != lru.Nil; x = c.ext.Next(x) {
		for e, b := c.ext.Val(x), c.ext.Val(x).first; b < e.first+e.n; b++ {
			nonClean[blockID{file: e.file, block: b}] = true
		}
	}
	wantDirty := make(map[uint32]int)
	for id := range nonClean {
		wantDirty[id.file]++
	}
	got, sum := maps.Clone(c.fileBlocks), 0
	for _, n := range got {
		sum += n
	}
	dirty, fileDirty := c.dirtyCount, maps.Clone(c.fileDirty)
	c.mu.Unlock()
	if dirty != len(nonClean) || !maps.Equal(fileDirty, wantDirty) {
		t.Fatalf("step %d (%s): dirtyCount %d, fileDirty %v; %d blocks non-clean, per file %v", step, op, dirty, fileDirty, len(nonClean), wantDirty)
	}
	if !maps.Equal(got, want) {
		t.Fatalf("step %d (%s): fileBlocks = %v, entries per file = %v", step, op, got, want)
	}
	if n := c.len(); sum != n || lruLen != n {
		t.Fatalf("step %d (%s): fileBlocks sum to %d, len() = %d", step, op, sum, n)
	}
}

// TestFileBlocksCountsEntries runs a seeded random mix of every
// operation that inserts or deletes a cache entry or an extent and checks
// the per-file and non-clean counts after each step.
func TestFileBlocksCountsEntries(t *testing.T) {
	outstanding := bufpool.Outstanding()
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newTestCache(16, 512) // small: puts and stages evict
		ops := []string{"put", "stage", "stage-large", "read", "flush", "invalidate", "truncate", "lend"}
		for step := 0; step < 3000; step++ {
			id := blockID{file: uint32(rng.Intn(4)), block: uint32(rng.Intn(24))}
			op := ops[rng.Intn(len(ops))]
			switch op {
			case "put":
				putBlock(c, id)
			case "stage":
				stageBlock(t, c, id)
			case "stage-large":
				stageExtentOf(t, c, id.file, id.block, 1+uint32(rng.Intn(8)), byte(step))
			case "read":
				if b, _, ok := c.getEnd(id, true); ok {
					b.Release()
				}
			case "flush":
				flushOne(c)
			case "invalidate":
				c.invalidate(id)
			case "truncate":
				if err := c.truncate(id.file, func() error { return nil }); err != nil {
					t.Fatal(err)
				}
			case "lend":
				for _, b := range c.lend(id.file, id.block, make([][]byte, 1+rng.Intn(8)), nil) {
					b.Release()
				}
			}
			checkFileBlocks(t, c, step, op)
		}
		for flushOne(c) {
		}
		checkFileBlocks(t, c, -1, "flush")
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
	seed, _ := c.lru.Find(blockID{file: file, block: 17})
	f, start, items := c.claimRunFromLocked(seed, nil)
	c.mu.Unlock()
	if len(items) != 2 {
		t.Fatalf("claimed %d blocks, want 2", len(items))
	}
	putBlock(c, blockID{file: file + 1, block: 5}) // another file's block is never lent

	for _, r := range []struct{ first, n uint32 }{{0, blocks}, {2, 16}, {31, 8}, {40, 20}} {
		hits, misses := c.hits.Load(), c.misses.Load()
		views := make([][]byte, r.n)
		held := c.lend(file, r.first, views, nil)
		lendHits, lendMisses := c.hits.Load()-hits, c.misses.Load()-misses

		hits, misses = c.hits.Load(), c.misses.Load()
		for i, lent := range views {
			b, _, ok := c.getEnd(blockID{file: file, block: r.first + uint32(i)}, false)
			if ok != (lent != nil) || (ok && &b.Data[0] != &lent[0]) {
				t.Fatalf("range %v block %d: lend gave %p, getEnd %p (ok %v)", r, r.first+uint32(i), lent, b, ok)
			}
			b.Release()
		}
		for _, b := range held {
			b.Release()
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

// TestFlushCompletionSparesSlotTenant: a block invalidated while its
// flush is in flight frees its slot, and another block may take the slot
// before the flush completes. The completion must write the old block
// off and leave the new tenant, clean or dirty, as it found it — not
// settle it clean, redirty it or drop its accounting.
func TestFlushCompletionSparesSlotTenant(t *testing.T) {
	for _, tc := range []struct {
		name             string
		restaged, tDirty bool
	}{
		{"clean tenant", false, false},
		{"dirty tenant", false, true},
		{"restaged then clean tenant", true, false},
		{"restaged then dirty tenant", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCache(8, 512)
			t.Cleanup(func() {
				for flushOne(c) {
				}
				c.close()
			})
			old, tenant := blockID{file: 1, block: 3}, blockID{file: 2, block: 9}
			stageBlock(t, c, old)
			c.mu.Lock()
			seed, _ := c.lru.Find(old)
			f, start, items := c.claimRunFromLocked(seed, nil)
			c.mu.Unlock()
			if tc.restaged {
				stageBlock(t, c, old) // redirty: the flush carries a superseded buffer
			}
			c.invalidate(old)
			if tc.tDirty {
				stageBlock(t, c, tenant)
			} else {
				putBlock(c, tenant)
			}
			c.mu.Lock()
			slot, _ := c.lru.Find(tenant)
			before := *c.lru.Val(slot)
			c.mu.Unlock()
			if slot != items[0].slot {
				t.Fatalf("tenant took slot %d, not the flushing block's %d", slot, items[0].slot)
			}

			c.flushRun(f, start, items)

			c.mu.Lock()
			defer c.mu.Unlock()
			after := *c.lru.Val(slot)
			if after != before {
				t.Fatalf("flush completion changed the tenant: %+v -> %+v", before, after)
			}
			wantDirty := map[uint32]int{}
			if tc.tDirty {
				wantDirty[tenant.file] = 1
			}
			if c.dirtyCount != len(wantDirty) || !maps.Equal(c.fileDirty, wantDirty) {
				t.Fatalf("dirtyCount %d, fileDirty %v; want %v", c.dirtyCount, c.fileDirty, wantDirty)
			}
			if queued := c.qHead == slot && c.qTail == slot; queued != tc.tDirty {
				t.Fatalf("tenant queued for flushing = %v, want %v", queued, tc.tDirty)
			}
			if _, ok := c.lru.Find(old); ok {
				t.Fatal("the invalidated block came back")
			}
		})
	}
}

// TestCacheChurnAllocatesNothing: once the slabs have grown to the
// working set, the block cache allocates nothing to insert or evict —
// clean fills, runs of page writes staged, written back and evicted, and
// extents staged and written back, over four times the cache's capacity
// of distinct blocks alike.
func TestCacheChurnAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled buffers allocate under the race detector")
	}
	const capacity, trainLen = 64, 8
	c := newTestCache(capacity, 512)
	defer c.close()
	next := uint32(0)
	page := bufpool.Get(512)
	defer page.Release()
	put := func() {
		id := blockID{file: 1, block: next}
		next++
		c.put(id, page, c.snapshot(id), 512)
	}
	for range 4 * capacity {
		put()
	}
	if n := testing.AllocsPerRun(4*capacity, put); n != 0 {
		t.Errorf("put + evict: %v allocs per insert", n)
	}

	train := make([]*bufpool.Buf, trainLen)
	var items []flushItem
	stage := func() {
		for i := range train {
			train[i] = bufpool.Get(512)
			if err := c.stage(blockID{file: 2, block: next + uint32(i)}, train[i], 0, 512, spare{}, 0); err != nil {
				t.Fatal(err)
			}
		}
		next += trainLen
		for _, b := range train {
			b.Release()
		}
		c.mu.Lock()
		var f, start uint32
		f, start, items = c.claimRunFromLocked(c.qHead, items[:0])
		c.mu.Unlock()
		if len(items) != trainLen {
			t.Fatalf("flushed %d blocks of a %d-block train", len(items), trainLen)
		}
		c.flushRun(f, start, items)
	}
	for range 4 * capacity / trainLen {
		stage()
	}
	if n := testing.AllocsPerRun(4*capacity/trainLen, stage); n != 0 {
		t.Errorf("train stage + flush + evict: %v allocs per train", n)
	}
	extent := func() {
		b := bufpool.Get(trainLen * 512)
		if n, err := c.stageExtent(3, next, b, 0, trainLen, 0, 512, spare{}, spare{}, 0); n != trainLen || err != nil {
			t.Fatalf("staged %d of %d blocks: %v", n, trainLen, err)
		}
		b.Release()
		next += trainLen
		if !flushOne(c) {
			t.Fatal("no extent to write back")
		}
	}
	for range 4 {
		extent()
	}
	if n := testing.AllocsPerRun(4*capacity/trainLen, extent); n != 0 {
		t.Errorf("extent stage + write-back: %v allocs per extent", n)
	}
	if c.len() != capacity {
		t.Fatalf("cache holds %d blocks, want its capacity %d", c.len(), capacity)
	}
}
