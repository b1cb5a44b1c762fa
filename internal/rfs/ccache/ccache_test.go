package ccache

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"vkernel/internal/bufpool"
)

func leakCheck(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for bufpool.Outstanding() != 0 {
			if time.Now().After(deadline) {
				t.Errorf("bufpool leak: %d buffers outstanding", bufpool.Outstanding())
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

func page(tag byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag ^ byte(i)
	}
	return p
}

func TestInsertGetAndLRUBound(t *testing.T) {
	leakCheck(t)
	c := New(Config{Blocks: 4, BlockSize: 64})
	defer c.Close()
	for b := uint32(0); b < 6; b++ {
		gen := c.Snapshot(1, b)
		c.Insert(1, b, page(byte(b), 64), gen)
	}
	if c.Len() != 4 {
		t.Fatalf("len = %d, want capacity 4", c.Len())
	}
	// The two oldest inserts were evicted.
	for b := uint32(0); b < 2; b++ {
		if _, ok := c.Get(1, b); ok {
			t.Fatalf("block %d survived past capacity", b)
		}
	}
	for b := uint32(2); b < 6; b++ {
		buf, ok := c.Get(1, b)
		if !ok {
			t.Fatalf("block %d missing", b)
		}
		if !bytes.Equal(buf.Data, page(byte(b), 64)) {
			t.Fatalf("block %d corrupted", b)
		}
		buf.Release()
	}
	st := c.Stats()
	if st.Hits != 4 || st.Misses != 2 || st.Inserts != 6 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPartialInsertRefused(t *testing.T) {
	leakCheck(t)
	c := New(Config{Blocks: 4, BlockSize: 64})
	defer c.Close()
	c.Insert(1, 0, page(1, 32), c.Snapshot(1, 0)) // not a whole page
	if c.Len() != 0 {
		t.Fatal("partial page was cached")
	}
}

// TestStaleInsertDropped is the fill-vs-invalidation race: an insert
// whose generation predates an invalidation must be refused, or a read
// that raced a write would resurrect pre-write bytes.
func TestStaleInsertDropped(t *testing.T) {
	leakCheck(t)
	c := New(Config{Blocks: 4, BlockSize: 64})
	defer c.Close()
	gen := c.Snapshot(7, 3)
	c.Invalidate(7, 3, 1) // the write's callback lands mid-fill
	c.Insert(7, 3, page(9, 64), gen)
	if _, ok := c.Get(7, 3); ok {
		t.Fatal("stale fill was inserted after an invalidation")
	}
	if st := c.Stats(); st.StaleDrops != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// A fresh snapshot taken after the invalidation inserts fine.
	c.Insert(7, 3, page(9, 64), c.Snapshot(7, 3))
	b, ok := c.Get(7, 3)
	if !ok {
		t.Fatal("fresh fill refused")
	}
	b.Release()
}

// TestRefusedRefreshDropsOldCopy is the write-refresh variant of the
// same race: the block is already cached, its owner rewrites it, and an
// invalidation of a neighbour sharing the generation shard lands before
// the refresh. The refresh is refused — and the copy it was replacing,
// now two writes old, must go with it.
func TestRefusedRefreshDropsOldCopy(t *testing.T) {
	leakCheck(t)
	c := New(Config{Blocks: 4, BlockSize: 64})
	defer c.Close()
	c.Insert(7, 3, page(1, 64), c.Snapshot(7, 3))
	neighbour := uint32(4)
	for shard(7, neighbour) != shard(7, 3) {
		neighbour++
	}
	gen := c.Snapshot(7, 3)
	c.Invalidate(7, neighbour, 1) // leaves block 3 cached, moves its stamp
	c.Insert(7, 3, page(2, 64), gen)
	if c.Contains(7, 3) {
		t.Fatal("a refused refresh left the pre-write copy cached")
	}
	if st := c.Stats(); st.StaleDrops != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestInvalidateRangeAndFile(t *testing.T) {
	leakCheck(t)
	c := New(Config{Blocks: 32, BlockSize: 64})
	defer c.Close()
	for b := uint32(0); b < 8; b++ {
		c.Insert(1, b, page(byte(b), 64), c.Snapshot(1, b))
		c.Insert(2, b, page(byte(b+100), 64), c.Snapshot(2, b))
	}
	c.Invalidate(1, 2, 3) // blocks 2,3,4 of file 1
	for b := uint32(0); b < 8; b++ {
		buf, ok := c.Get(1, b)
		buf.Release()
		if want := b < 2 || b > 4; ok != want {
			t.Fatalf("file 1 block %d present=%v want %v", b, ok, want)
		}
	}
	c.InvalidateFile(2)
	for b := uint32(0); b < 8; b++ {
		if _, ok := c.Get(2, b); ok {
			t.Fatalf("file 2 block %d survived InvalidateFile", b)
		}
	}
	// A wide range degrades to the whole-file scan.
	c.Insert(1, 0, page(1, 64), c.Snapshot(1, 0))
	c.Invalidate(1, 0, ^uint32(0))
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("wide-range invalidate missed a block")
	}
}

// TestGetSurvivesInvalidation: a block lent out by Get stays readable
// after the cache drops it (the ref count protects the borrower).
func TestGetSurvivesInvalidation(t *testing.T) {
	leakCheck(t)
	c := New(Config{Blocks: 4, BlockSize: 64})
	defer c.Close()
	want := page(5, 64)
	c.Insert(3, 0, want, c.Snapshot(3, 0))
	buf, ok := c.Get(3, 0)
	if !ok {
		t.Fatal("missing block")
	}
	c.InvalidateFile(3)
	if !bytes.Equal(buf.Data, want) {
		t.Fatal("lent block recycled under the borrower")
	}
	buf.Release()
}

func TestCloseReleasesAndRefuses(t *testing.T) {
	leakCheck(t)
	c := New(Config{Blocks: 4, BlockSize: 64})
	c.Insert(1, 0, page(1, 64), c.Snapshot(1, 0))
	c.Close()
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("Get hit after Close")
	}
	c.Insert(1, 1, page(2, 64), c.Snapshot(1, 1))
	if c.Len() != 0 {
		t.Fatal("Insert accepted after Close")
	}
}

// TestConcurrentAccess races fills, hits and invalidations (run under
// -race); the invariant checked is only that Get never returns a freed
// or torn buffer.
func TestConcurrentAccess(t *testing.T) {
	leakCheck(t)
	c := New(Config{Blocks: 16, BlockSize: 64})
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := uint32(i % 8)
				switch i % 3 {
				case 0:
					gen := c.Snapshot(1, b)
					c.Insert(1, b, page(byte(b), 64), gen)
				case 1:
					if buf, ok := c.Get(1, b); ok {
						if !bytes.Equal(buf.Data, page(byte(b), 64)) {
							t.Errorf("torn read of block %d", b)
						}
						buf.Release()
					}
				case 2:
					c.Invalidate(1, b, 1)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestInsertChurnAllocatesNothing: once the cache is full, inserting a
// new page and evicting the oldest allocates nothing.
func TestInsertChurnAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled buffers allocate under the race detector")
	}
	c := New(Config{Blocks: 64})
	defer c.Close()
	page := make([]byte, 512)
	next := uint32(0)
	insert := func() {
		c.Insert(1, next, page, c.Snapshot(1, next))
		next++
	}
	for range 256 {
		insert()
	}
	if n := testing.AllocsPerRun(256, insert); n != 0 {
		t.Fatalf("%v allocs per insert", n)
	}
	if c.Len() != 64 {
		t.Fatalf("cache holds %d blocks, want 64", c.Len())
	}
}
