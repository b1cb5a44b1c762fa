package rfs

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"vkernel/internal/bufpool"
	"vkernel/internal/rfs/lru"
)

// newTestCache is a cache with no flushers and no dirty budget, so a
// test decides when each flush runs and never blocks in stage.
func newTestCache(capacity, blockSize int) *blockCache {
	return newBlockCache(capacity, blockSize, 0, 0, func(uint32, int64, []byte) error { return nil })
}

// flushOne claims and writes back one extent, as a flusher would; it
// reports whether there was one.
func flushOne(c *blockCache) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	x := c.nextLocked()
	if x != lru.Nil {
		c.flushExtentLocked(x)
	}
	return x != lru.Nil
}

func putBlock(c *blockCache, id blockID) {
	b := bufpool.Get(c.blockSize)
	c.put(id, b, c.snapshot(id), c.blockSize)
	b.Release()
}

// stagePage stages b as a page write of block id, its payload [lo, hi).
func stagePage(c *blockCache, id blockID, b *bufpool.Buf, lo, hi int, sp spare) error {
	_, err := c.stageExtent(id.file, id.block, b, 0, 1, lo, hi, sp, spare{}, 0, true)
	return err
}

// stageBlock stages one block as a page write.
func stageBlock(t *testing.T, c *blockCache, id blockID) {
	t.Helper()
	b := bufpool.Get(c.blockSize)
	if err := stagePage(c, id, b, 0, c.blockSize, spare{}); err != nil {
		t.Fatal(err)
	}
	b.Release()
}

// checkFileBlocks asserts that fileBlocks counts exactly the entries of
// each file and that the counts add up to the cache's length, and that
// dirtyCount and fileDirty count each block an unwritten extent holds
// once.
func checkFileBlocks(t testing.TB, c *blockCache, step int, op string) {
	t.Helper()
	c.mu.Lock()
	want, lruLen := make(map[uint32]int), 0
	nonClean := make(map[blockID]bool)
	for s := c.lru.Front(); s != lru.Nil; s = c.lru.Next(s) {
		want[c.lru.Key(s).file]++
		lruLen++
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

// The model's files and the blocks it checks of each: ops start below
// modelBlocks-8 so an 8-block extent still fits.
const modelFiles, modelBlocks = 4, 32

// cacheModel drives a flusherless cache (capacity 16: puts and stages
// evict) through a seeded mix of every operation that stages, fills,
// reads, writes back or drops its blocks, beside a reference: ref, each
// file's bytes as the staged writes left them, and store, the store as
// the cache's write hook left it. After every op each block's getEnd and
// lend image must be the reference's, or on a miss the store's; after a
// drain, replaying the recorded store writes must give the reference.
// Every store write of a block must carry a staged image of it no older
// than its previous one (staging order).
type cacheModel struct {
	t          testing.TB
	c          *blockCache
	rng        *rand.Rand
	bs         int
	ref, store map[uint32][]byte
	log        []storeWrite // store writes in landing order; off -1 is a truncate
	// hist holds each block's staged images since its file's last
	// truncate, oldest first; at is the index of the one its last store
	// write carried.
	hist map[blockID][][]byte
	at   map[blockID]int
	// tainted blocks' newest bytes went to a failed write-back: the cache
	// keeps them until it evicts them, so they read either way.
	tainted map[blockID]bool
	// lost lists the blocks a failed write-back carried the newest bytes
	// of and that had no cache entry when it began: it must leave them
	// cached.
	lost   []blockID
	cached map[blockID]bool
	err    error // the first staging-order violation the hook saw

	// fail makes the hook fail the write it is handed; hold makes it park
	// the next write, on a goroutine of its own, until release, and
	// failHeld says whether that one fails.
	fail, hold, failHeld bool
	held                 bool
	entered              chan bool
	release              chan struct{}
	done                 chan struct{}
}

func newCacheModel(t testing.TB, seed int64) *cacheModel {
	m := &cacheModel{
		t: t, rng: rand.New(rand.NewSource(seed)), bs: 512,
		ref: make(map[uint32][]byte), store: make(map[uint32][]byte),
		hist: make(map[blockID][][]byte), at: make(map[blockID]int), tainted: make(map[blockID]bool),
		entered: make(chan bool, 1), release: make(chan struct{}),
	}
	m.c = newBlockCache(16, m.bs, 0, 0, m.write)
	return m
}

// write is the cache's store write-back hook.
func (m *cacheModel) write(file uint32, off int64, p []byte) error {
	fail := m.fail
	if m.hold {
		m.hold = false
		m.entered <- true
		<-m.release
		fail = m.failHeld
	}
	first := uint32(off / int64(m.bs))
	for i := 0; i < len(p); i += m.bs {
		id := blockID{file: file, block: first + uint32(i/m.bs)}
		img := p[i:min(i+m.bs, len(p))]
		if fail {
			if sameImage(img, m.block(m.ref, id)) {
				m.tainted[id] = true
				if !m.cached[id] {
					m.lost = append(m.lost, id)
				}
			}
			continue
		}
		k := m.at[id]
		for k < len(m.hist[id]) && !sameImage(img, m.hist[id][k]) {
			k++
		}
		if k == len(m.hist[id]) && m.err == nil {
			m.err = fmt.Errorf("store write of block %v carries no staged image at or after its last one (%d of %d)", id, m.at[id], len(m.hist[id]))
		}
		m.at[id] = k
		if sameImage(img, m.block(m.ref, id)) {
			delete(m.tainted, id)
		}
	}
	if fail {
		return errBadDevice
	}
	m.log = append(m.log, storeWrite{file, off, bytes.Clone(p)})
	m.store[file] = writeImage(m.store[file], p, off)
	return nil
}

// sameImage reports whether a store write's bytes img of a block are its
// image full: img, then zeros.
func sameImage(img, full []byte) bool {
	return bytes.Equal(img, full[:len(img)]) && !slices.ContainsFunc(full[len(img):], func(b byte) bool { return b != 0 })
}

// writeImage writes p into img at off, growing it.
func writeImage(img, p []byte, off int64) []byte {
	if end := int(off) + len(p); end > len(img) {
		img = append(img, make([]byte, end-len(img))...)
	}
	copy(img[off:], p)
	return img
}

// block returns block id of files, zero-padded to a whole block.
func (m *cacheModel) block(files map[uint32][]byte, id blockID) []byte {
	img := make([]byte, m.bs)
	if f, at := files[id.file], int(id.block)*m.bs; at < len(f) {
		copy(img, f[at:])
	}
	return img
}

// stageBytes fills p with step's bytes.
func stageBytes(p []byte, step int) {
	for i := range p {
		p[i] = byte(step*7 + i)
	}
}

// fetch is the server's getBlock without the insert: the block's newest
// image, from the cache or else the store, and the generation taken
// before. buf is nil when the store has no bytes of it.
func (m *cacheModel) fetch(id blockID) spare {
	sp := spare{gen: m.c.snapshot(id)}
	if b, end, ok := m.c.getEnd(id, false); ok {
		sp.buf, sp.end = b, end
		return sp
	}
	f, at := m.store[id.file], int(id.block)*m.bs
	if at >= len(f) {
		return sp
	}
	sp.buf = bufpool.Get(m.bs)
	clear(sp.buf.Data)
	sp.end = copy(sp.buf.Data, f[at:])
	return sp
}

// payload picks a write's payload within blocks [first, first+n): whole
// blocks or a random head and tail, but never part of a tainted block,
// whose old bytes the cache and the store disagree on.
func (m *cacheModel) payload(file, first, n uint32) (lo, hi int) {
	lo, hi = 0, m.bs
	if m.rng.Intn(2) == 0 && !m.tainted[blockID{file: file, block: first}] {
		lo = m.rng.Intn(m.bs)
	}
	if m.rng.Intn(2) == 0 && !m.tainted[blockID{file: file, block: first + n - 1}] {
		if n == 1 {
			hi = lo + 1 + m.rng.Intn(m.bs-lo)
		} else {
			hi = 1 + m.rng.Intn(m.bs)
		}
	}
	return lo, hi
}

// stage stages step's write over blocks [first, first+n) of file, as a
// page write (page, n 1) or a large write's extent, and applies it to
// the reference.
func (m *cacheModel) stage(file, first, n uint32, page bool, step int) {
	bs := m.bs
	lo, hi := m.payload(file, first, n)
	var head, tail spare
	if lo > 0 || (n == 1 && hi < bs) {
		head = m.fetch(blockID{file: file, block: first})
	}
	if n > 1 && hi < bs {
		tail = m.fetch(blockID{file: file, block: first + n - 1})
	}
	off := 0
	if !page && m.rng.Intn(2) == 0 {
		off = bs // the train sits past another block's image
	}
	b := bufpool.Get(off + int(n)*bs)
	for i := range b.Data {
		b.Data[i] = 0xee // whatever the pool's last tenant left
	}
	pay := b.Data[off+lo : off+int(n-1)*bs+hi]
	stageBytes(pay, step)
	var err error
	if page {
		err = stagePage(m.c, blockID{file: file, block: first}, b, lo, hi, head)
	} else {
		var k uint32
		if k, err = m.c.stageExtent(file, first, b, off, n, lo, hi, head, tail, 0, false); err == nil && k != n {
			err = fmt.Errorf("staged %d of %d blocks", k, n)
		}
	}
	b.Release()
	head.buf.Release()
	tail.buf.Release()
	if err != nil {
		m.t.Fatalf("step %d: stage %d blocks at %d/%d: %v", step, n, file, first, err)
	}
	m.ref[file] = writeImage(m.ref[file], pay, int64(first)*int64(bs)+int64(lo))
	for blk := first; blk < first+n; blk++ {
		id := blockID{file: file, block: blk}
		m.hist[id] = append(m.hist[id], m.block(m.ref, id))
		delete(m.tainted, id)
	}
}

// fill is the server's page-read miss path: the generation, a miss, the
// store read, and the insert, maybe with a write of the block racing the
// store read, whose bytes the insert must not hide.
func (m *cacheModel) fill(id blockID, step int) {
	gen := m.c.snapshot(id)
	if b, _, ok := m.c.getEnd(id, true); ok {
		b.Release()
		return
	}
	b := bufpool.Get(m.bs)
	clear(b.Data)
	n := 0
	if f, at := m.store[id.file], int(id.block)*m.bs; at < len(f) {
		n = copy(b.Data, f[at:])
	}
	if m.rng.Intn(2) == 0 {
		if m.rng.Intn(2) == 0 {
			m.stage(id.file, id.block, 1, true, step)
		} else {
			m.stage(id.file, id.block, 1+uint32(m.rng.Intn(2)), false, step)
		}
		if m.rng.Intn(2) == 0 {
			flushOne(m.c)
		}
	}
	m.c.put(id, b, gen, n)
	b.Release()
}

// failing runs a write-back, f, that fails.
func (m *cacheModel) failing(f func()) {
	m.fail, m.cached = true, make(map[blockID]bool)
	m.c.mu.Lock()
	for s := m.c.lru.Front(); s != lru.Nil; s = m.c.lru.Next(s) {
		m.cached[m.c.lru.Key(s)] = true
	}
	m.c.mu.Unlock()
	f()
	m.fail = false
	for _, id := range m.lost {
		b, _, ok := m.c.getEnd(id, false)
		if !ok {
			m.t.Fatalf("block %v left the cache at its failed write-back", id)
		}
		b.Release()
	}
	m.lost = m.lost[:0]
}

// claim starts a write-back that parks in the store write, failing with
// one chance in four, until complete.
func (m *cacheModel) claim() {
	if m.held {
		return
	}
	m.hold, m.failHeld = true, m.rng.Intn(4) == 0
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		if !flushOne(m.c) {
			m.entered <- false
		}
	}()
	if m.held = <-m.entered; !m.held {
		<-m.done
		m.hold = false
	}
}

// complete lets the parked write-back land.
func (m *cacheModel) complete() {
	if m.held {
		m.failing(func() {
			m.release <- struct{}{}
			<-m.done
		})
		m.held = false
	}
}

// drain syncs the cache and checks that the recorded store writes,
// replayed, give the reference.
func (m *cacheModel) drain(step int) {
	m.complete()
	m.c.flushAll() // a failed write-back's error; its blocks are tainted
	if n := m.c.dirtyBlocks(); n != 0 {
		m.t.Fatalf("step %d: %d blocks non-clean after a drain", step, n)
	}
	replay := make(map[uint32][]byte)
	for _, w := range m.log {
		if w.off < 0 {
			replay[w.file] = nil
		} else {
			replay[w.file] = writeImage(replay[w.file], w.data, w.off)
		}
	}
	for file := range uint32(modelFiles) {
		for blk := range uint32(modelBlocks) {
			id := blockID{file: file, block: blk}
			if !m.tainted[id] && !bytes.Equal(m.block(replay, id), m.block(m.ref, id)) {
				m.t.Fatalf("step %d: block %v: the store writes replayed differ from the staged bytes", step, id)
			}
		}
	}
}

// check compares every block's getEnd and lend image with the reference.
// It starts at a random block: reading marks an entry recently used, and
// the eviction order should not always favour one end.
func (m *cacheModel) check(step int, op string) {
	if m.err != nil {
		m.t.Fatalf("step %d (%s): %v", step, op, m.err)
	}
	views := make([][]byte, modelBlocks)
	start := m.rng.Intn(modelFiles * modelBlocks)
	for i := range modelFiles * modelBlocks {
		k := (start + i) % (modelFiles * modelBlocks)
		id := blockID{file: uint32(k / modelBlocks), block: uint32(k % modelBlocks)}
		if id.block == 0 || i == 0 {
			for _, b := range m.c.lend(id.file, 0, views, nil) {
				defer b.Release()
			}
		}
		want, stored := m.block(m.ref, id), m.block(m.store, id)
		b, _, ok := m.c.getEnd(id, false)
		switch {
		case ok != (views[id.block] != nil):
			m.t.Fatalf("step %d (%s): block %v: getEnd hit %v, lend %v", step, op, id, ok, views[id.block] != nil)
		case ok && !bytes.Equal(b.Data[:m.bs], views[id.block]):
			m.t.Fatalf("step %d (%s): block %v: getEnd and lend images differ", step, op, id)
		case ok && !bytes.Equal(b.Data[:m.bs], want) && !(m.tainted[id] && bytes.Equal(b.Data[:m.bs], stored)):
			m.t.Fatalf("step %d (%s): block %v: cached image is not the newest write", step, op, id)
		case !ok && !bytes.Equal(stored, want) && !m.tainted[id]:
			m.t.Fatalf("step %d (%s): block %v: a miss, but the store lacks the newest write", step, op, id)
		}
		if ok {
			b.Release()
		}
	}
}

// runCacheModel runs steps seeded random ops through a cacheModel,
// checking the counts and the images after each, then drains and closes
// the cache.
func runCacheModel(t testing.TB, seed int64, steps int) {
	m := newCacheModel(t, seed)
	c, rng := m.c, m.rng
	ops := []string{"put", "stage", "stage-large", "read", "flush", "flush-fail", "claim", "complete", "invalidate", "truncate", "lend", "drain"}
	for step := 0; step < steps; step++ {
		id := blockID{file: uint32(rng.Intn(modelFiles)), block: uint32(rng.Intn(modelBlocks - 8))}
		op := ops[rng.Intn(len(ops))]
		switch op {
		case "put":
			m.fill(id, step)
		case "stage":
			m.stage(id.file, id.block, 1, true, step)
		case "stage-large":
			m.stage(id.file, id.block, 1+uint32(rng.Intn(8)), false, step)
		case "read":
			if b, _, ok := c.getEnd(id, true); ok {
				b.Release()
			}
		case "flush":
			flushOne(c)
		case "flush-fail":
			m.failing(func() { flushOne(c) })
		case "claim":
			m.claim()
		case "complete":
			m.complete()
		case "invalidate":
			// A replica's store-first apply of a write: nothing of the
			// block is staged, and the store has new bytes.
			m.complete()
			c.drain(id.file)
			img := make([]byte, m.bs)
			stageBytes(img, step)
			m.log = append(m.log, storeWrite{id.file, int64(id.block) * int64(m.bs), img})
			m.store[id.file] = writeImage(m.store[id.file], img, int64(id.block)*int64(m.bs))
			m.ref[id.file] = writeImage(m.ref[id.file], img, int64(id.block)*int64(m.bs))
			m.hist[id] = append(m.hist[id], img)
			m.at[id] = len(m.hist[id]) - 1
			delete(m.tainted, id)
			c.invalidate(id)
		case "truncate":
			m.complete()
			err := c.truncate(id.file, func() error {
				m.log = append(m.log, storeWrite{id.file, -1, nil})
				m.store[id.file] = []byte{}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			delete(m.ref, id.file)
			for blk := range uint32(modelBlocks) {
				b := blockID{file: id.file, block: blk}
				delete(m.hist, b)
				delete(m.at, b)
				delete(m.tainted, b)
			}
		case "lend":
			for _, b := range c.lend(id.file, id.block, make([][]byte, 1+rng.Intn(8)), nil) {
				b.Release()
			}
		case "drain":
			m.drain(step)
		}
		checkFileBlocks(t, c, step, op)
		m.check(step, op)
	}
	m.drain(-1)
	for flushOne(c) {
	}
	checkFileBlocks(t, c, -1, "flush")
	m.check(-1, "flush")
	c.close()
	checkFileBlocks(t, c, -1, "close")
	if c.len() != 0 {
		t.Fatalf("seed %d: %d entries after close", seed, c.len())
	}
}

// TestFileBlocksCountsEntries runs a seeded random mix of every
// operation that inserts or deletes a cache entry or an extent (see
// cacheModel) and checks the per-file and non-clean counts and every
// block's image after each step.
func TestFileBlocksCountsEntries(t *testing.T) {
	outstanding := bufpool.Outstanding()
	for seed := int64(1); seed <= 5; seed++ {
		runCacheModel(t, seed, 3000)
	}
	if got := bufpool.Outstanding(); got != outstanding {
		t.Fatalf("bufpool outstanding %d -> %d", outstanding, got)
	}
}

// FuzzBlockCache runs TestFileBlocksCountsEntries' op loop from fuzzed
// seeds.
func FuzzBlockCache(f *testing.F) {
	for seed := range int64(4) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		outstanding := bufpool.Outstanding()
		runCacheModel(t, seed, 400)
		if got := bufpool.Outstanding(); got != outstanding {
			t.Fatalf("bufpool outstanding %d -> %d", outstanding, got)
		}
	})
}

// TestLendMatchesGetEnd: lending a train's blocks in one call hands out
// the same buffers, of clean blocks and of page writes pending and in
// flight alike, and counts the same hits and misses as probing each
// block with getEnd.
func TestLendMatchesGetEnd(t *testing.T) {
	const file, blocks = 7, 40
	c := newTestCache(64, 512)
	for _, b := range []uint32{1, 2, 9, 30} {
		putBlock(c, blockID{file: file, block: b})
	}
	for _, b := range []uint32{3, 17, 18, 39} {
		stageBlock(t, c, blockID{file: file, block: b})
	}
	// Claim the extents of 17 and 18 as a flusher would; 3 and 39 stay
	// pending.
	var claimed []int32
	c.mu.Lock()
	for x := c.ext.Front(); x != lru.Nil; x = c.ext.Next(x) {
		if e := c.ext.Val(x); e.first == 17 || e.first == 18 {
			e.flushing = true
			claimed = append(claimed, x)
		}
	}
	c.mu.Unlock()
	if len(claimed) != 2 {
		t.Fatalf("claimed %d extents, want 2", len(claimed))
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
	c.mu.Lock()
	for _, x := range claimed {
		c.flushExtentLocked(x)
	}
	c.mu.Unlock()
	for flushOne(c) {
	}
	c.close()
}

// TestCacheChurnAllocatesNothing: once the slabs have grown to the
// working set, the block cache allocates nothing to insert or evict —
// clean fills, page writes staged, written back and evicted, and
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
	stage := func() {
		for i := range train {
			train[i] = bufpool.Get(512)
			if err := stagePage(c, blockID{file: 2, block: next + uint32(i)}, train[i], 0, 512, spare{}); err != nil {
				t.Fatal(err)
			}
		}
		next += trainLen
		for _, b := range train {
			b.Release()
		}
		for range trainLen {
			if !flushOne(c) {
				t.Fatal("no page write to write back")
			}
		}
	}
	for range 4 * capacity / trainLen {
		stage()
	}
	if n := testing.AllocsPerRun(4*capacity/trainLen, stage); n != 0 {
		t.Errorf("page writes stage + write-back + evict: %v allocs per %d pages", n, trainLen)
	}
	extent := func() {
		b := bufpool.Get(trainLen * 512)
		if n, err := c.stageExtent(3, next, b, 0, trainLen, 0, 512, spare{}, spare{}, 0, false); n != trainLen || err != nil {
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
