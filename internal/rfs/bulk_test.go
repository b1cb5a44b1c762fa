package rfs

import (
	"bytes"
	"sync/atomic"
	"testing"

	"vkernel/internal/ipc"
)

// countStore counts ReadAt and WriteAt calls and can run a hook once the
// inner read has returned, before its caller sees the bytes.
type countStore struct {
	Store
	reads     atomic.Int64
	writes    atomic.Int64
	afterRead atomic.Pointer[func()]
}

func (c *countStore) WriteAt(file uint32, p []byte, off int64) error {
	c.writes.Add(1)
	return c.Store.WriteAt(file, p, off)
}

func (c *countStore) ReadAt(file uint32, p []byte, off int64) (int, error) {
	n, err := c.Store.ReadAt(file, p, off)
	c.reads.Add(1)
	if f := c.afterRead.Swap(nil); f != nil {
		(*f)()
	}
	return n, err
}

// seed puts image into the store behind the server's back, so the cache
// is cold for it.
func seed(t *testing.T, s Store, file uint32, image []byte) {
	t.Helper()
	if err := s.WriteAt(file, image, 0); err != nil {
		t.Fatal(err)
	}
}

// readLarge reads len(want) bytes at off, checks them, and returns how
// many store reads that cost.
func readLarge(t *testing.T, c *Client, cs *countStore, file, off uint32, want []byte) int64 {
	t.Helper()
	before := cs.reads.Load()
	got := make([]byte, len(want))
	if n, err := c.ReadLarge(file, off, got); err != nil || n != len(want) {
		t.Fatalf("ReadLarge(file %d, off %d): n=%d err=%v, want %d bytes", file, off, n, err, len(want))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ReadLarge(file %d, off %d) returned other bytes than the file holds", file, off)
	}
	return cs.reads.Load() - before
}

// TestLargeReadStoreReads: a 64 KB read of uncached blocks costs one
// store read, not one per block, every time, since nothing it fetches is
// cached; cached blocks cost none and split the runs around them — and a
// cached block that is dirty is served as staged.
func TestLargeReadStoreReads(t *testing.T) {
	const size = 64 << 10
	mem := NewMemStore()
	seed(t, mem, 7, pattern(7, size))
	seed(t, mem, 8, pattern(8, size))
	gated := newGatedStore(mem) // writes wait: staged blocks stay dirty
	cs := &countStore{Store: gated}
	e := memEnvStore(t, cs, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	t.Cleanup(gated.open)
	c := e.client(t, "app")

	if got := readLarge(t, c, cs, 7, 0, pattern(7, size)); got != 1 {
		t.Errorf("cold 64 KB read cost %d store reads, want 1", got)
	}
	if got := readLarge(t, c, cs, 7, 0, pattern(7, size)); got != 1 {
		t.Errorf("repeated 64 KB read cost %d store reads, want 1 (a large read caches nothing)", got)
	}

	// A whole-page write lands block 64 of the second file in the cache,
	// dirty (the store is gated), without reading anything.
	want := pattern(8, size)
	page := pattern(99, 512)
	copy(want[64*512:], page)
	before := cs.reads.Load()
	if err := c.WriteBlock(8, 64, page); err != nil {
		t.Fatal(err)
	}
	if dirty := volGauge(e.srv, "dirty_blocks"); dirty != 1 || cs.reads.Load() != before {
		t.Fatalf("fixture: dirty blocks = %d, store reads = %d, want 1 staged page and no read", dirty, cs.reads.Load()-before)
	}
	if got := readLarge(t, c, cs, 8, 0, want); got != 2 {
		t.Errorf("64 KB read around one staged block cost %d store reads, want 2", got)
	}
}

// TestLargeReadAtEOF: a read reaching past the end of the file returns
// the file's bytes and no more; the block straddling the end, which the
// read did not cache, then reads on its own as the tail followed by
// zeros.
func TestLargeReadAtEOF(t *testing.T) {
	const size = 64<<10 - 300
	cs := &countStore{Store: NewMemStore()}
	seed(t, cs, 7, pattern(7, size))
	e := memEnvStore(t, cs, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "app")

	got := bytes.Repeat([]byte{0xEE}, 64<<10)
	n, err := c.ReadLarge(7, 512, got)
	if err != nil || n != size-512 {
		t.Fatalf("ReadLarge to past EOF: n=%d err=%v, want %d", n, err, size-512)
	}
	if !bytes.Equal(got[:n], pattern(7, size)[512:]) {
		t.Fatal("ReadLarge to past EOF returned other bytes than the file holds")
	}
	if !bytes.Equal(got[n:], bytes.Repeat([]byte{0xEE}, len(got)-n)) {
		t.Fatal("ReadLarge wrote past the end of the file's bytes")
	}
	if reads := cs.reads.Load(); reads != 1 {
		t.Errorf("the read cost %d store reads, want 1", reads)
	}
	last := make([]byte, 512)
	if _, err := c.ReadBlock(7, size/512, last); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(last[:size%512], pattern(7, size)[size/512*512:]) || !bytes.Equal(last[size%512:], make([]byte, 512-size%512)) {
		t.Error("the block straddling EOF is not the file's tail followed by zeros")
	}
	if reads := cs.reads.Load(); reads != 2 {
		t.Errorf("the tail block cost %d store reads after the large read's, want 1", reads-1)
	}
}

// TestLargeReadRacesConcurrentWrite: another client writes a page after a
// large read's store read returned and before the read is served. The
// read returns the page as it read it; every read after the write returns
// the new page, and the large read leaves nothing cached but the staged
// page.
func TestLargeReadRacesConcurrentWrite(t *testing.T) {
	const size = 64 << 10
	cs := &countStore{Store: NewMemStore()}
	seed(t, cs, 7, pattern(7, size))
	e := memEnvStore(t, cs, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c, writer := e.client(t, "reader"), e.client(t, "writer")

	page := pattern(99, 512)
	write := func() {
		if err := writer.WriteBlock(7, 10, page); err != nil {
			t.Errorf("concurrent write: %v", err)
		}
	}
	cs.afterRead.Store(&write)
	want := pattern(7, size) // the old page 10: the store read came first
	if reads := readLarge(t, c, cs, 7, 0, want); reads != 1 {
		t.Errorf("racing read cost %d store reads, want 1", reads)
	}
	copy(want[10*512:], page)
	block := make([]byte, 512)
	if _, err := c.ReadBlock(7, 10, block); err != nil || !bytes.Equal(block, page) {
		t.Errorf("ReadBlock after the write: err=%v, new page returned = %v", err, bytes.Equal(block, page))
	}
	if reads := readLarge(t, c, cs, 7, 0, want); reads != 2 {
		t.Errorf("second read cost %d store reads, want 2 (the runs either side of the cached page)", reads)
	}
	if n := e.srv.volumes[DefaultVolume].cache.len(); n != 1 {
		t.Errorf("cache holds %d blocks, want 1 (the staged page)", n)
	}
}

// TestLargeReadLeavesPageCache: streaming a file through large reads
// leaves the pages other programs keep hot where they are, even when the
// stream is many times the cache.
func TestLargeReadLeavesPageCache(t *testing.T) {
	const pages, streamSize = 32, 1 << 20
	cs := &countStore{Store: NewMemStore()}
	seed(t, cs, 1, pattern(1, pages*512))
	seed(t, cs, 2, pattern(2, streamSize))
	e := memEnvStore(t, cs, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{CacheBlocks: 64})
	c := e.client(t, "app")

	page := make([]byte, 512)
	readPages := func() {
		for b := uint32(0); b < pages; b++ {
			if _, err := c.ReadBlock(1, b, page); err != nil || !bytes.Equal(page, pattern(1, pages*512)[b*512:(b+1)*512]) {
				t.Fatalf("ReadBlock(1, %d): err=%v or other bytes than the file holds", b, err)
			}
		}
	}
	readPages() // warm
	image := pattern(2, streamSize)
	for off := uint32(0); off < streamSize; off += 64 << 10 {
		readLarge(t, c, cs, 2, off, image[off:off+64<<10])
	}
	misses, reads := volGauge(e.srv, "cache_misses"), cs.reads.Load()
	readPages()
	if d := volGauge(e.srv, "cache_misses") - misses; d != 0 {
		t.Errorf("re-reading the warm pages after the stream missed the cache %d times, want 0", d)
	}
	if d := cs.reads.Load() - reads; d != 0 {
		t.Errorf("re-reading the warm pages after the stream cost %d store reads, want 0", d)
	}
}

// TestLargeWriteLeavesPageCache: streaming a file through large writes
// leaves the pages other programs keep hot where they are, even when the
// stream is many times the cache: its blocks leave the cache as they are
// written back.
func TestLargeWriteLeavesPageCache(t *testing.T) {
	const pages, streamSize = 32, 1 << 20
	cs := &countStore{Store: NewMemStore()}
	seed(t, cs, 1, pattern(1, pages*512))
	e := memEnvStore(t, cs, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{CacheBlocks: 64})
	c := e.client(t, "app")

	page := make([]byte, 512)
	readPages := func() {
		for b := uint32(0); b < pages; b++ {
			if _, err := c.ReadBlock(1, b, page); err != nil || !bytes.Equal(page, pattern(1, pages*512)[b*512:(b+1)*512]) {
				t.Fatalf("ReadBlock(1, %d): err=%v or other bytes than the file holds", b, err)
			}
		}
	}
	readPages() // warm
	image := pattern(2, streamSize)
	for off := uint32(0); off < streamSize; off += 64 << 10 {
		if err := c.WriteLarge(2, off, image[off:off+64<<10]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.srv.Flush(); err != nil {
		t.Fatal(err)
	}
	misses, reads := volGauge(e.srv, "cache_misses"), cs.reads.Load()
	readPages()
	if d := volGauge(e.srv, "cache_misses") - misses; d != 0 {
		t.Errorf("re-reading the warm pages after the stream missed the cache %d times, want 0", d)
	}
	if d := cs.reads.Load() - reads; d != 0 {
		t.Errorf("re-reading the warm pages after the stream cost %d store reads, want 0", d)
	}
	if n := resident(e.srv, 2); n != 0 {
		t.Errorf("%d blocks of the streamed file stayed cached, want 0", n)
	}
	if n := volGauge(e.srv, "writeback_drops"); n != streamSize/512 {
		t.Errorf("writeback_drops = %d, want %d (every streamed block)", n, streamSize/512)
	}
}

// resident counts the blocks of file the server's default volume caches.
func resident(s *Server, file uint32) int {
	c := s.volumes[DefaultVolume].cache
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fileBlocks[file]
}

// TestLargeReadAcrossStagedHoles: a file that exists only as staged
// blocks reads as those blocks with zeros between them, the holes the
// flusher has not yet materialized.
func TestLargeReadAcrossStagedHoles(t *testing.T) {
	gated := newGatedStore(NewMemStore()) // nothing flushes: the store never has the file
	e := memEnvStore(t, gated, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	t.Cleanup(gated.open)
	c := e.client(t, "app")

	page := pattern(5, 512)
	for _, b := range []uint32{0, 130} {
		if err := c.WriteBlock(5, b, page); err != nil {
			t.Fatal(err)
		}
	}
	got := bytes.Repeat([]byte{0xEE}, 64<<10)
	if n, err := c.ReadLarge(5, 0, got); err != nil || n != len(got) {
		t.Fatalf("ReadLarge: n=%d err=%v, want %d", n, err, len(got))
	}
	if !bytes.Equal(got[:512], page) || !bytes.Equal(got[512:], make([]byte, len(got)-512)) {
		t.Error("ReadLarge of a staged-only file is not page 0 followed by zeros")
	}
}

// TestBulkTransferCrossings: with segmentation offload a 64 KB transfer
// crosses into the kernel a handful of times on each side, though it
// still puts 64 data packets on the wire. Where the kernel refuses the
// offload the transport falls back to a crossing per packet, so only the
// packet count is asserted there.
func TestBulkTransferCrossings(t *testing.T) {
	c := startCluster(t, ClusterConfig{UDP: true, Volumes: []uint32{DefaultVolume}})
	node := clientNode(t, c)
	client := NewClient(attach(t, node, "app"), c.Servers[0].Srv.Pid())
	srvReg, cliReg := c.Servers[0].Srv.Metrics(), node.Metrics()

	const size, ops = 64 << 10, 20
	image := pattern(3, size)
	if err := client.WriteLarge(3, 0, image); err != nil { // warm: peers learned, file cached
		t.Fatal(err)
	}
	got := make([]byte, size)
	run := func(name string, sender, receiver func(string) int64, op func() error) {
		sends, pkts, recvs := sender("net.sends"), sender("net.tx_packets"), receiver("net.recvs")
		for i := 0; i < ops; i++ {
			if err := op(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		sends, pkts, recvs = sender("net.sends")-sends, sender("net.tx_packets")-pkts, receiver("net.recvs")-recvs
		if pkts < 64*ops {
			t.Errorf("%s: %d packets sent by the data's source over %d ops, want at least 64 each", name, pkts, ops)
		}
		if refused := sender("net.gso_refused"); refused > 0 {
			t.Logf("%s: kernel refused UDP_SEGMENT; %d sends for %d packets", name, sends, pkts)
			return
		}
		if sends > 6*ops || recvs > 6*ops {
			t.Errorf("%s: %d sends at the source and %d recvs at the sink over %d ops, want at most 6 each per op", name, sends, recvs, ops)
		}
	}
	srv := func(name string) int64 { return srvReg.Counter(name).Load() }
	cli := func(name string) int64 { return cliReg.Counter(name).Load() }
	run("ReadLarge", srv, cli, func() error {
		_, err := client.ReadLarge(3, 0, got)
		return err
	})
	if !bytes.Equal(got, image) {
		t.Error("ReadLarge returned other bytes than were written")
	}
	run("WriteLarge", cli, srv, func() error { return client.WriteLarge(3, 0, image) })
}
