package rfs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/ipc"
)

// env is one server node + one client node with an rfs server running.
type env struct {
	serverNode *ipc.Node
	clientNode *ipc.Node
	srv        *Server
	store      Store
}

// leakCheck registers a cleanup — running after the scenario's own
// teardown — that asserts every pooled buffer the scenario took was
// returned: outstanding buffers must drain to zero once the nodes, mesh
// and server have closed. Stragglers (blocked senders releasing their
// frames just after Close returns) get a grace period.
func leakCheck(t testing.TB) {
	t.Helper()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := bufpool.Outstanding()
			if n == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("bufpool leak: %d buffers still outstanding after teardown", n)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// memEnv builds the pair on an in-memory mesh.
func memEnv(t testing.TB, faults ipc.FaultConfig, nodeCfg ipc.NodeConfig, cfg Config) *env {
	return memEnvStore(t, NewMemStore(), faults, nodeCfg, cfg)
}

// memEnvStore is memEnv over a caller-provided store (fault-injecting
// store wrappers, write-gating, …).
func memEnvStore(t testing.TB, store Store, faults ipc.FaultConfig, nodeCfg ipc.NodeConfig, cfg Config) *env {
	t.Helper()
	leakCheck(t)
	mesh := ipc.NewMemNetwork(7, faults)
	serverNode := ipc.NewNode(1, mesh.Transport(1), nodeCfg)
	clientNode := ipc.NewNode(2, mesh.Transport(2), nodeCfg)
	srv, err := Start(serverNode, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = clientNode.Close()
		_ = serverNode.Close()
		srv.Close()
		mesh.Close()
	})
	return &env{serverNode: serverNode, clientNode: clientNode, srv: srv, store: store}
}

// udpEnv builds the pair on loopback UDP sockets.
func udpEnv(t testing.TB, cfg Config) *env {
	return udpEnvStore(t, NewMemStore(), cfg)
}

// udpEnvStore is udpEnv over a caller-provided store.
func udpEnvStore(t testing.TB, store Store, cfg Config) *env {
	t.Helper()
	leakCheck(t)
	trS, err := ipc.NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	trC, err := ipc.NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	trS.AddPeer(2, trC.Addr())
	trC.AddPeer(1, trS.Addr())
	serverNode := ipc.NewNode(1, trS, ipc.NodeConfig{})
	clientNode := ipc.NewNode(2, trC, ipc.NodeConfig{})
	srv, err := Start(serverNode, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = clientNode.Close()
		_ = serverNode.Close()
		srv.Close()
	})
	return &env{serverNode: serverNode, clientNode: clientNode, srv: srv, store: store}
}

// client attaches a fresh process on the client node and binds stubs.
func (e *env) client(t testing.TB, name string) *Client {
	t.Helper()
	p, err := e.clientNode.Attach(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.clientNode.Detach(p) })
	return NewClient(p, e.srv.Pid())
}

// nodeCounter reads one of a node's registry counters, e.g. "ipc.retransmits".
func nodeCounter(n *ipc.Node, name string) int64 { return n.Metrics().Counter(name).Load() }

// srvCounter reads one of a server's registry counters, e.g. "rfs.page_reads".
func srvCounter(s *Server, name string) int64 { return s.Metrics().Counter(name).Load() }

// volGauge sums one per-volume gauge, rfs.vol<id>.<name>, over the
// server's volumes.
func volGauge(s *Server, name string) int64 {
	var sum int64
	s.Metrics().Do(nil, func(n string, v int64) {
		if strings.HasPrefix(n, "rfs.vol") && strings.HasSuffix(n, "."+name) {
			sum += v
		}
	}, nil)
	return sum
}

// pattern fills a deterministic, file-distinct byte pattern.
func pattern(file uint32, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(int(file)*31 + i*7)
	}
	return out
}

func TestPageReadWrite(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "app")

	page := pattern(3, 512)
	if err := c.WriteBlock(3, 7, page); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	n, err := c.ReadBlock(3, 7, got)
	if err != nil {
		t.Fatal(err)
	}
	if n != 512 || !bytes.Equal(got, page) {
		t.Fatalf("page corrupted: n=%d", n)
	}

	// Partial-page read.
	small := make([]byte, 64)
	if n, err = c.ReadBlock(3, 7, small); err != nil || n != 64 {
		t.Fatalf("partial read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(small, page[:64]) {
		t.Fatal("partial read corrupted")
	}

	// The write extended the file to cover block 7.
	size, err := c.QueryFile(3)
	if err != nil {
		t.Fatal(err)
	}
	if size != 8*512 {
		t.Fatalf("size = %d, want %d", size, 8*512)
	}

	if r, w := srvCounter(e.srv, "rfs.page_reads"), srvCounter(e.srv, "rfs.page_writes"); r != 2 || w != 1 {
		t.Fatalf("rfs.page_reads = %d, rfs.page_writes = %d, want 2 and 1", r, w)
	}
}

func TestReadMissingFile(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "app")
	if _, err := c.ReadBlock(99, 0, make([]byte, 512)); err == nil {
		t.Fatal("read of missing file succeeded")
	}
	if _, err := c.QueryFile(99); err == nil {
		t.Fatal("query of missing file succeeded")
	}
}

func TestCreateAndQuery(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "app")
	if err := c.CreateFile(5, 4096); err != nil {
		t.Fatal(err)
	}
	size, err := c.QueryFile(5)
	if err != nil {
		t.Fatal(err)
	}
	if size != 4096 {
		t.Fatalf("size = %d", size)
	}
	// Fresh file reads as zeros.
	buf := make([]byte, 512)
	if _, err := c.ReadBlock(5, 0, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh file not zeroed")
		}
	}
}

func TestLargeWriteThenRead(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "app")

	const size = 100_000 // two trains, partial tail block
	data := pattern(9, size)
	if err := c.WriteLarge(9, 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	n, err := c.ReadLarge(9, 0, got)
	if err != nil {
		t.Fatal(err)
	}
	if n != size || !bytes.Equal(got, data) {
		t.Fatalf("large read corrupted: n=%d", n)
	}

	// Offset read across block boundaries.
	part := make([]byte, 1000)
	if n, err = c.ReadLarge(9, 513, part); err != nil || n != 1000 {
		t.Fatalf("offset read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(part, data[513:1513]) {
		t.Fatal("offset read corrupted")
	}

	// Read past EOF clamps to the file size.
	tail := make([]byte, 4096)
	if n, err = c.ReadLarge(9, size-100, tail); err != nil || n != 100 {
		t.Fatalf("tail read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(tail[:100], data[size-100:]) {
		t.Fatal("tail read corrupted")
	}
}

func TestWriteAtOffsetAndCacheInvalidation(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "app")

	base := pattern(4, 8192)
	if err := c.WriteLarge(4, 0, base); err != nil {
		t.Fatal(err)
	}
	// Pull everything through the cache.
	warm := make([]byte, 8192)
	if _, err := c.ReadLarge(4, 0, warm); err != nil {
		t.Fatal(err)
	}
	// Overwrite a span that straddles blocks, then re-read: the cache must
	// not serve stale data.
	patch := pattern(77, 1500)
	if err := c.WriteLarge(4, 700, patch); err != nil {
		t.Fatal(err)
	}
	copy(base[700:], patch)
	got := make([]byte, 8192)
	if _, err := c.ReadLarge(4, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Fatal("stale cache data after overlapping write")
	}

	// Same for a single-page write.
	page := pattern(88, 512)
	if err := c.WriteBlock(4, 2, page); err != nil {
		t.Fatal(err)
	}
	copy(base[2*512:], page)
	if _, err := c.ReadLarge(4, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Fatal("stale cache data after page write")
	}
}

func TestLoadProgram(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "shell")
	const size = 65_536
	image := pattern(12, size)
	if err := c.WriteLarge(12, 0, image); err != nil {
		t.Fatal(err)
	}
	got, err := c.LoadProgram(12, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, image) {
		t.Fatal("program image corrupted")
	}
	large, pages, queries := srvCounter(e.srv, "rfs.large_reads"), srvCounter(e.srv, "rfs.page_reads"), srvCounter(e.srv, "rfs.queries")
	if large != 1 || pages != 1 || queries != 1 {
		t.Fatalf("load sequence: %d large reads, %d page reads, %d queries; want one each", large, pages, queries)
	}
}

// TestConcurrentClients drives 8 independent clients through mixed
// page/large traffic on distinct files at once; every byte must survive.
func TestConcurrentClients(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		c := e.client(t, fmt.Sprintf("app%d", i))
		file := uint32(100 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := pattern(file, 20_000)
			if err := c.WriteLarge(file, 0, data); err != nil {
				errs <- fmt.Errorf("file %d write: %w", file, err)
				return
			}
			for round := 0; round < 10; round++ {
				page := make([]byte, 512)
				if _, err := c.ReadBlock(file, uint32(round), page); err != nil {
					errs <- fmt.Errorf("file %d page read: %w", file, err)
					return
				}
				if !bytes.Equal(page, data[round*512:(round+1)*512]) {
					errs <- fmt.Errorf("file %d page %d corrupted", file, round)
					return
				}
			}
			got := make([]byte, len(data))
			if _, err := c.ReadLarge(file, 0, got); err != nil {
				errs <- fmt.Errorf("file %d large read: %w", file, err)
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("file %d large read corrupted", file)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentClientsSharedFile has 8 clients hammer the same file's
// pages read-only; the block cache must serve them all correctly.
func TestConcurrentClientsSharedFile(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	seed := e.client(t, "seeder")
	data := pattern(55, 32*512)
	if err := seed.WriteLarge(55, 0, data); err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		c := e.client(t, fmt.Sprintf("reader%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			page := make([]byte, 512)
			for b := uint32(0); b < 32; b++ {
				if _, err := c.ReadBlock(55, b, page); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(page, data[b*512:(b+1)*512]) {
					errs <- fmt.Errorf("block %d corrupted", b)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if volGauge(e.srv, "cache_hits") == 0 {
		t.Fatal("no cache hits across shared reads")
	}
}

func TestUDPPageAndLargeOps(t *testing.T) {
	e := udpEnv(t, Config{})
	c := e.client(t, "app")

	page := pattern(1, 512)
	if err := c.WriteBlock(1, 0, page); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if _, err := c.ReadBlock(1, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("page corrupted over UDP")
	}

	const size = 64 * 1024
	image := pattern(2, size)
	if err := c.WriteLarge(2, 0, image); err != nil {
		t.Fatal(err)
	}
	large := make([]byte, size)
	if n, err := c.ReadLarge(2, 0, large); err != nil || n != size {
		t.Fatalf("large read over UDP: n=%d err=%v", n, err)
	}
	if !bytes.Equal(large, image) {
		t.Fatal("large read corrupted over UDP")
	}
}

// TestUDPDiscover resolves the server through the broadcast name service
// over real sockets.
func TestUDPDiscover(t *testing.T) {
	e := udpEnv(t, Config{})
	p, err := e.clientNode.Attach("app")
	if err != nil {
		t.Fatal(err)
	}
	defer e.clientNode.Detach(p)
	c, err := Discover(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.Server() != e.srv.Pid() {
		t.Fatalf("resolved %v, want %v", c.Server(), e.srv.Pid())
	}
}

// TestUDPConcurrentClients is the acceptance bar: ≥4 concurrent clients
// over loopback UDP, page and streamed reads both correct.
func TestUDPConcurrentClients(t *testing.T) {
	e := udpEnv(t, Config{})
	seed := e.client(t, "seeder")
	const size = 48 * 1024
	image := pattern(30, size)
	if err := seed.WriteLarge(30, 0, image); err != nil {
		t.Fatal(err)
	}
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		c := e.client(t, fmt.Sprintf("app%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			page := make([]byte, 512)
			if _, err := c.ReadBlock(30, 3, page); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(page, image[3*512:4*512]) {
				errs <- fmt.Errorf("page corrupted")
				return
			}
			got := make([]byte, size)
			if n, err := c.ReadLarge(30, 0, got); err != nil || n != size {
				errs <- fmt.Errorf("large read: n=%d err=%v", n, err)
				return
			}
			if !bytes.Equal(got, image) {
				errs <- fmt.Errorf("large read corrupted")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestUDPConcurrentTrains: sixteen workstations each write a 64 KB file
// and read it back, over and over, against one server on loopback UDP —
// sixteen packet trains at a time converging on the server's socket on
// the way in and leaving it on the way out. Every byte must be right,
// and (the environment's leak check) every pooled buffer back in the
// pool after close.
func TestUDPConcurrentTrains(t *testing.T) {
	e := udpEnv(t, Config{})
	const clients, rounds, size = 16, 8, 64 * 1024
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c := e.client(t, fmt.Sprintf("ws%d", i))
		file := uint32(100 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]byte, size)
			for r := 0; r < rounds; r++ {
				image := pattern(file+uint32(r), size)
				if err := c.WriteLarge(file, 0, image); err != nil {
					t.Errorf("file %d round %d: write: %v", file, r, err)
					return
				}
				if n, err := c.ReadLarge(file, 0, got); err != nil || n != size {
					t.Errorf("file %d round %d: read: n=%d err=%v", file, r, n, err)
					return
				}
				if !bytes.Equal(got, image) {
					t.Errorf("file %d round %d: read back other bytes than were written", file, r)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFileStore runs the protocol against the durable, directory-backed
// store and checks the data survives a store reopen.
func TestFileStore(t *testing.T) {
	leakCheck(t)
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	mesh := ipc.NewMemNetwork(7, ipc.FaultConfig{})
	serverNode := ipc.NewNode(1, mesh.Transport(1), ipc.NodeConfig{})
	clientNode := ipc.NewNode(2, mesh.Transport(2), ipc.NodeConfig{})
	srv, err := Start(serverNode, store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := clientNode.Attach("app")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(p, srv.Pid())

	data := pattern(6, 10_000)
	if err := c.WriteLarge(6, 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := c.ReadLarge(6, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file-backed large read corrupted")
	}

	_ = clientNode.Close()
	_ = serverNode.Close()
	srv.Close()
	mesh.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the bytes must still be there.
	store2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	size, err := store2.Size(6)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(data)) {
		t.Fatalf("reopened size = %d", size)
	}
	back := make([]byte, len(data))
	if _, err := store2.ReadAt(6, back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("data lost across store reopen")
	}
}

// TestConcurrentReadWriteSameFile overlaps readers and writers on one
// file. Written under the race detector's eye: MemStore must lock its
// copies, and the cache's generation stamps must keep a racing miss-fill
// from resurrecting pre-write bytes. Each block is written with a
// self-identifying pattern, so any read must observe some complete write
// of that block — torn or stale mixes fail the check.
func TestConcurrentReadWriteSameFile(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{CacheBlocks: 8})
	seed := e.client(t, "seeder")
	const blocks = 16
	for b := uint32(0); b < blocks; b++ {
		if err := seed.WriteBlock(60, b, versionedPage(b, 0)); err != nil {
			t.Fatal(err)
		}
	}
	const writers, readers, rounds = 2, 4, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		c := e.client(t, fmt.Sprintf("writer%d", w))
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				b := uint32((w*rounds + r) % blocks)
				if err := c.WriteBlock(60, b, versionedPage(b, uint32(r))); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for rd := 0; rd < readers; rd++ {
		c := e.client(t, fmt.Sprintf("reader%d", rd))
		wg.Add(1)
		go func() {
			defer wg.Done()
			page := make([]byte, 512)
			for r := 0; r < rounds; r++ {
				b := uint32(r % blocks)
				if _, err := c.ReadBlock(60, b, page); err != nil {
					errs <- err
					return
				}
				if err := checkVersionedPage(b, page); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// versionedPage builds a 512-byte page whose every 4-byte word encodes
// (block, version), so a mix of two writes is detectable.
func versionedPage(block, version uint32) []byte {
	page := make([]byte, 512)
	for i := 0; i+4 <= len(page); i += 4 {
		v := block<<16 | version
		page[i] = byte(v >> 24)
		page[i+1] = byte(v >> 16)
		page[i+2] = byte(v >> 8)
		page[i+3] = byte(v)
	}
	return page
}

func checkVersionedPage(block uint32, page []byte) error {
	var first uint32
	for i := 0; i+4 <= len(page); i += 4 {
		v := uint32(page[i])<<24 | uint32(page[i+1])<<16 | uint32(page[i+2])<<8 | uint32(page[i+3])
		if i == 0 {
			first = v
			if v>>16 != block {
				return fmt.Errorf("block %d read back block %d's data", block, v>>16)
			}
			continue
		}
		if v != first {
			return fmt.Errorf("block %d torn: word 0 = %#x, word %d = %#x", block, first, i/4, v)
		}
	}
	return nil
}
