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

// flushOne claims and writes back one run of dirty blocks, as a flusher
// would; it reports whether there was one.
func flushOne(c *blockCache) bool {
	c.mu.Lock()
	if c.qHead == lru.Nil {
		c.mu.Unlock()
		return false
	}
	file, start, items := c.claimRunFromLocked(c.qHead, nil)
	c.mu.Unlock()
	c.flushRun(file, start, items)
	return true
}

func putBlock(c *blockCache, id blockID) {
	b := bufpool.Get(c.blockSize)
	c.put(id, b, c.snapshot(id), c.blockSize)
	b.Release()
}

func stageBlock(t *testing.T, c *blockCache, id blockID) { stageLarge(t, c, id, false) }

// stageLarge stages one block as a page write or, with large, a large
// write's.
func stageLarge(t *testing.T, c *blockCache, id blockID, large bool) {
	t.Helper()
	b := bufpool.Get(c.blockSize)
	if _, err := c.stage(id.file, id.block, []*bufpool.Buf{b}, 0, c.blockSize, spare{}, spare{}, 0, large); err != nil {
		t.Fatal(err)
	}
	b.Release()
}

// checkFileBlocks asserts that fileBlocks counts exactly the entries of
// each file and that the counts add up to the cache's length, and that
// wbOnly counts the write-behind-only entries, none of them clean.
func checkFileBlocks(t *testing.T, c *blockCache, step int, op string) {
	t.Helper()
	c.mu.Lock()
	want, lruLen, wbOnly := make(map[uint32]int), 0, 0
	for s := c.lru.Front(); s != lru.Nil; s = c.lru.Next(s) {
		want[c.lru.Key(s).file]++
		lruLen++
		if e := c.lru.Val(s); e.wbOnly {
			wbOnly++
			if e.state == stateClean {
				t.Errorf("step %d (%s): write-behind-only block %v is clean", step, op, c.lru.Key(s))
			}
		}
	}
	got, sum := maps.Clone(c.fileBlocks), 0
	for _, n := range got {
		sum += n
	}
	counted := c.wbOnly
	c.mu.Unlock()
	if counted != wbOnly {
		t.Fatalf("step %d (%s): wbOnly = %d, %d entries write-behind-only", step, op, counted, wbOnly)
	}
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
				stageLarge(t, c, id, true)
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
	seed, _ := c.lru.Find(blockID{file: file, block: 17})
	f, start, items := c.claimRunFromLocked(seed, nil)
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
			b, _, ok := c.getEnd(blockID{file: file, block: r.first + uint32(i)}, false)
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

// TestCacheChurnAllocatesNothing: once the slab has grown to the working
// set, the block cache allocates nothing to insert or evict — clean
// fills, and trains staged, written back and evicted over four times the
// cache's capacity of distinct blocks alike.
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
		}
		if n, err := c.stage(2, next, train, 0, 512, spare{}, spare{}, 0, false); n != trainLen || err != nil {
			t.Fatalf("staged %d of %d blocks: %v", n, trainLen, err)
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
	if c.len() != capacity {
		t.Fatalf("cache holds %d blocks, want its capacity %d", c.len(), capacity)
	}
}
