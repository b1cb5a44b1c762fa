package rfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vkernel/internal/ipc"
)

// gatedStore blocks every WriteAt until the gate opens, so tests can pin
// staged blocks in the dirty state and observe the pre-flush world.
type gatedStore struct {
	Store
	gate     chan struct{}
	openOnce sync.Once
	writes   atomic.Int64
}

func newGatedStore(inner Store) *gatedStore {
	return &gatedStore{Store: inner, gate: make(chan struct{})}
}

func (g *gatedStore) open() { g.openOnce.Do(func() { close(g.gate) }) }

func (g *gatedStore) WriteAt(file uint32, p []byte, off int64) error {
	<-g.gate
	g.writes.Add(1)
	return g.Store.WriteAt(file, p, off)
}

// slowStore delays every WriteAt (and, with readDelay set, every ReadAt),
// simulating a store slow enough to saturate the server's worker pool.
type slowStore struct {
	Store
	delay     time.Duration
	readDelay time.Duration
}

func (s *slowStore) WriteAt(file uint32, p []byte, off int64) error {
	time.Sleep(s.delay)
	return s.Store.WriteAt(file, p, off)
}

func (s *slowStore) ReadAt(file uint32, p []byte, off int64) (int, error) {
	if s.readDelay > 0 {
		time.Sleep(s.readDelay)
	}
	return s.Store.ReadAt(file, p, off)
}

// TestWriteBehindReadYourWrites: with the store gated shut, acknowledged
// writes must be readable (pages, streamed reads and size queries) purely
// from staged cache blocks — and the store must provably not have them
// yet. Opening the gate and syncing makes them durable.
func TestWriteBehindReadYourWrites(t *testing.T) {
	mem := NewMemStore()
	gated := newGatedStore(mem)
	e := memEnvStore(t, gated, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	t.Cleanup(gated.open) // never strand the flushers if an assert fails
	c := e.client(t, "app")

	page := pattern(7, 512)
	if err := c.WriteBlock(9, 3, page); err != nil {
		t.Fatal(err)
	}
	image := pattern(8, 10_000)
	if err := c.WriteLarge(9, 4*512, image); err != nil {
		t.Fatal(err)
	}

	// Nothing reached the store...
	if n := gated.writes.Load(); n != 0 {
		t.Fatalf("store saw %d writes before the gate opened", n)
	}
	if _, err := mem.Size(9); err != ErrNoFile {
		t.Fatalf("store has the file before flush (err=%v)", err)
	}
	// ...yet every acknowledged byte reads back, and the size query sees
	// the staged extension.
	got := make([]byte, 512)
	if _, err := c.ReadBlock(9, 3, got); err != nil || !bytes.Equal(got, page) {
		t.Fatalf("read-your-writes page: err=%v", err)
	}
	large := make([]byte, len(image))
	if n, err := c.ReadLarge(9, 4*512, large); err != nil || n != len(image) || !bytes.Equal(large, image) {
		t.Fatalf("read-your-writes large: n=%d err=%v", n, err)
	}
	wantSize := 4*512 + len(image)
	if size, err := c.QueryFile(9); err != nil || size != wantSize {
		t.Fatalf("staged size = %d (err=%v), want %d", size, err, wantSize)
	}
	if volGauge(e.srv, "dirty_blocks") == 0 {
		t.Fatal("no dirty blocks while the gate is shut")
	}

	// Open the gate, sync, and verify durability straight off the store.
	gated.open()
	if err := c.Sync(0); err != nil {
		t.Fatal(err)
	}
	if dirty, flushed := volGauge(e.srv, "dirty_blocks"), volGauge(e.srv, "flushed_blocks"); dirty != 0 || flushed == 0 {
		t.Fatalf("sync left %d dirty blocks (%d flushed)", dirty, flushed)
	}
	back := make([]byte, wantSize)
	if _, err := mem.ReadAt(9, back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back[3*512:4*512], page) || !bytes.Equal(back[4*512:], image) {
		t.Fatal("flushed store bytes differ from acknowledged writes")
	}
}

// TestWriteBehindPartialPageMerge: partial page writes and unaligned
// large writes staged before any flush must merge with older staged
// bytes in write order, and the merged image must survive the flush.
func TestWriteBehindPartialPageMerge(t *testing.T) {
	mem := NewMemStore()
	gated := newGatedStore(mem)
	e := memEnvStore(t, gated, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	t.Cleanup(gated.open)
	c := e.client(t, "app")

	base := pattern(1, 512)
	if err := c.WriteBlock(5, 0, base); err != nil {
		t.Fatal(err)
	}
	// Partial page over the staged block: head replaced, tail preserved.
	head := pattern(2, 100)
	if err := c.WriteBlock(5, 0, head); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, head...), base[100:]...)
	got := make([]byte, 512)
	if _, err := c.ReadBlock(5, 0, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("staged merge wrong before flush (err=%v)", err)
	}
	// Unaligned large write straddling the block boundary merges too.
	patch := pattern(3, 700)
	if err := c.WriteLarge(5, 300, patch); err != nil {
		t.Fatal(err)
	}
	want = append(want[:300], patch...)
	gated.open()
	if err := c.Sync(0); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(want))
	if _, err := mem.ReadAt(5, back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, want) {
		t.Fatal("flushed bytes lost a staged partial write")
	}
}

// TestWriteBehindBackpressure: with the store gated shut, a writer can
// run ahead of the flushers by at most DirtyBudget blocks; the budget
// must hold while writes stall, and opening the gate must land every
// acknowledged byte. DirtyBudget -1 is the degenerate budget of one:
// the second write's ack waits for the first block's store write.
func TestWriteBehindBackpressure(t *testing.T) {
	for _, tc := range []struct{ cfg, budget int }{{4, 4}, {-1, 1}} {
		t.Run(fmt.Sprintf("budget=%d", tc.cfg), func(t *testing.T) {
			mem := NewMemStore()
			gated := newGatedStore(mem)
			e := memEnvStore(t, gated, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{DirtyBudget: tc.cfg})
			t.Cleanup(gated.open)
			c := e.client(t, "app")

			const blocks = 24
			var acked atomic.Int64
			done := make(chan error, 1)
			go func() {
				var err error
				for b := uint32(0); b < blocks && err == nil; b++ {
					if err = c.WriteBlock(11, b, pattern(b, 512)); err == nil {
						acked.Add(1)
					}
				}
				done <- err
			}()

			// The writer must stall: neither the dirty count nor the
			// acknowledged writes may exceed the budget, and the write
			// stream cannot finish while the gate is shut.
			deadline := time.Now().Add(200 * time.Millisecond)
			sawBudget := false
			for time.Now().Before(deadline) {
				if n := int(volGauge(e.srv, "dirty_blocks")); n > tc.budget {
					t.Fatalf("dirty blocks %d exceed budget %d", n, tc.budget)
				} else if n == tc.budget {
					sawBudget = true
				}
				if n := acked.Load(); n > int64(tc.budget) {
					t.Fatalf("%d writes acknowledged through a closed gate, budget %d", n, tc.budget)
				}
				select {
				case err := <-done:
					t.Fatalf("writer finished through a closed gate (err=%v)", err)
				default:
				}
				time.Sleep(time.Millisecond)
			}
			if !sawBudget {
				t.Fatal("writer never filled the dirty budget")
			}
			gated.open()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err := c.Sync(0); err != nil {
				t.Fatal(err)
			}
			for b := uint32(0); b < blocks; b++ {
				back := make([]byte, 512)
				if _, err := mem.ReadAt(11, back, int64(b)*512); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, pattern(b, 512)) {
					t.Fatalf("block %d lost through backpressure", b)
				}
			}
		})
	}
}

// TestWriteBehindExactlyOnceUnderFaults: page writes over a lossy,
// duplicating network with write-behind on must execute exactly once at
// the server, read back correctly before any sync, and land intact in
// the store after one.
func TestWriteBehindExactlyOnceUnderFaults(t *testing.T) {
	mem := NewMemStore()
	e := memEnvStore(t, mem,
		ipc.FaultConfig{
			DropProb:    0.12,
			DupProb:     0.10,
			CorruptProb: 0.05,
			MaxDelay:    2 * time.Millisecond,
		},
		ipc.NodeConfig{RetransmitTimeout: 10 * time.Millisecond, Retries: 100},
		Config{},
	)
	c := e.client(t, "app")

	const writes = 40
	for i := 0; i < writes; i++ {
		if err := c.WriteBlock(21, uint32(i), pattern(uint32(i), 512)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if got := srvCounter(e.srv, "rfs.page_writes"); got != writes {
		t.Fatalf("server applied %d page writes, want exactly %d", got, writes)
	}
	buf := make([]byte, 512)
	for i := 0; i < writes; i++ {
		if _, err := c.ReadBlock(21, uint32(i), buf); err != nil {
			t.Fatalf("read back %d: %v", i, err)
		}
		if !bytes.Equal(buf, pattern(uint32(i), 512)) {
			t.Fatalf("block %d corrupted before sync", i)
		}
	}
	if err := c.Sync(0); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, 512)
	for i := 0; i < writes; i++ {
		if _, err := mem.ReadAt(21, back, int64(i)*512); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, pattern(uint32(i), 512)) {
			t.Fatalf("block %d corrupted in the store after sync", i)
		}
	}
}

// TestWriteLargeScatterUnderFaults: a streamed WriteLarge over a lossy,
// duplicating network scatters chunks into cache blocks with MoveFromVec;
// the §3.3 resume must deliver every byte exactly where it belongs, with
// retransmissions actually exercised.
func TestWriteLargeScatterUnderFaults(t *testing.T) {
	mem := NewMemStore()
	e := memEnvStore(t, mem,
		ipc.FaultConfig{
			DropProb: 0.12,
			DupProb:  0.10,
			MaxDelay: 2 * time.Millisecond,
		},
		ipc.NodeConfig{RetransmitTimeout: 10 * time.Millisecond, Retries: 100},
		Config{},
	)
	c := e.client(t, "app")

	const size = 64 * 1024
	image := pattern(31, size)
	if err := c.WriteLarge(31, 0, image); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, size)
	if n, err := c.ReadLarge(31, 0, got); err != nil || n != size {
		t.Fatalf("read back: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, image) {
		t.Fatal("scattered WriteLarge corrupted data before sync")
	}
	if err := c.Sync(0); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, size)
	if _, err := mem.ReadAt(31, back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, image) {
		t.Fatal("scattered WriteLarge corrupted data in the store")
	}
	// The MoveFrom stream runs client→server on the server's pull, so
	// its resume machinery shows up in the retransmission counters; with
	// ~12% loss over ≥64 data packets the run is vacuous without any.
	if nodeCounter(e.serverNode, "ipc.retransmits")+nodeCounter(e.clientNode, "ipc.retransmits") == 0 {
		t.Fatal("no retransmissions under fault injection; test is vacuous")
	}
}

// TestWriteBehindDurabilityAcrossReopen: acknowledged write-behind data
// must survive Server.Close (which drains the dirty blocks) and a full
// FileStore reopen.
func TestWriteBehindDurabilityAcrossReopen(t *testing.T) {
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

	data := pattern(16, 20_000)
	if err := c.WriteLarge(16, 0, data); err != nil {
		t.Fatal(err)
	}
	page := pattern(17, 512)
	if err := c.WriteBlock(16, 50, page); err != nil {
		t.Fatal(err)
	}
	// 50*512 = 25600 > 20000: the page write extended the file past the
	// large write, leaving a zero hole between them.
	want := make([]byte, 51*512)
	copy(want, data)
	copy(want[50*512:], page)

	// Close WITHOUT an explicit Sync: Close itself must drain.
	_ = clientNode.Close()
	_ = serverNode.Close()
	srv.Close()
	mesh.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	size, err := store2.Size(16)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(want)) {
		t.Fatalf("reopened size = %d, want %d", size, len(want))
	}
	back := make([]byte, len(want))
	if _, err := store2.ReadAt(16, back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, want) {
		t.Fatal("write-behind data lost across Close + reopen")
	}
}

// TestStagedPartialPageTailIsZero: a partial page staged into a recycled
// pooled buffer must read back zero-padded — never another tenant's
// bytes. The pool is deliberately polluted first: full pages written and
// flushed, then the file truncated so its buffers recycle.
func TestStagedPartialPageTailIsZero(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "app")

	dirty := bytes.Repeat([]byte{0xEE}, 512)
	for b := uint32(0); b < 64; b++ {
		if err := c.WriteBlock(1, b, dirty); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(0); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateFile(1, 0); err != nil {
		t.Fatal(err)
	}

	// A 5-byte page write into a fresh file lands in a recycled buffer.
	if err := c.WriteBlock(2, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if _, err := c.ReadBlock(2, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:5], []byte("hello")) {
		t.Fatal("payload corrupted")
	}
	for i := 5; i < 512; i++ {
		if got[i] != 0 {
			t.Fatalf("staged page leaked recycled buffer bytes at %d (%#x)", i, got[i])
		}
	}
}

// TestTruncateOrderedAfterInflightFlush: a truncate acknowledged while
// an older write's flush is parked inside the store must not be undone
// when that flush lands — the create waits out in-flight flushes of the
// file before truncating.
func TestTruncateOrderedAfterInflightFlush(t *testing.T) {
	mem := NewMemStore()
	gated := newGatedStore(mem)
	e := memEnvStore(t, gated, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	t.Cleanup(gated.open)
	c := e.client(t, "app")

	if err := c.WriteBlock(9, 0, pattern(9, 512)); err != nil {
		t.Fatal(err)
	}
	// Let a flusher claim the block and park inside the gated WriteAt
	// (claiming follows the stage broadcast within microseconds).
	time.Sleep(10 * time.Millisecond)
	// Truncate concurrently with the parked flush; open the gate shortly
	// after so the create's drain can complete.
	go func() {
		time.Sleep(20 * time.Millisecond)
		gated.open()
	}()
	if err := c.CreateFile(9, 0); err != nil {
		t.Fatal(err)
	}
	if size, err := c.QueryFile(9); err != nil || size != 0 {
		t.Fatalf("truncated file regrew: size=%d err=%v", size, err)
	}
	if size, err := mem.Size(9); err != nil || size != 0 {
		t.Fatalf("store-level truncate undone by in-flight flush: size=%d err=%v", size, err)
	}
}

// stepStore admits one WriteAt per token, so tests can sequence
// individual flush writes; closing tokens lets everything through.
type stepStore struct {
	Store
	tokens chan struct{}
}

func (s *stepStore) WriteAt(file uint32, p []byte, off int64) error {
	<-s.tokens
	return s.Store.WriteAt(file, p, off)
}

// TestSyncCoversRedirtiedBlock: a block re-written while its first flush
// is in flight (redirty) and then synced must not satisfy the sync with
// the superseded flush — the drain has to wait for the flush that
// carries the re-written bytes.
func TestSyncCoversRedirtiedBlock(t *testing.T) {
	mem := NewMemStore()
	step := &stepStore{Store: mem, tokens: make(chan struct{}, 16)}
	var closeOnce sync.Once
	t.Cleanup(func() { closeOnce.Do(func() { close(step.tokens) }) })
	e := memEnvStore(t, step, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "app")

	v1, v2 := pattern(1, 512), pattern(2, 512)
	if err := c.WriteBlock(9, 0, v1); err != nil {
		t.Fatal(err)
	}
	// Let a flusher claim v1's buffer and park awaiting a token, then
	// supersede it: the entry goes redirty with v2's buffer.
	time.Sleep(10 * time.Millisecond)
	if err := c.WriteBlock(9, 0, v2); err != nil {
		t.Fatal(err)
	}
	syncer := e.client(t, "syncer")
	syncDone := make(chan error, 1)
	go func() { syncDone <- syncer.Sync(0) }()

	// Admit exactly the superseded flush. The sync must NOT complete on
	// it — when it does complete, the store must hold v2.
	step.tokens <- struct{}{}
	select {
	case err := <-syncDone:
		if err != nil {
			t.Fatal(err)
		}
		back := make([]byte, 512)
		if _, err := mem.ReadAt(9, back, 0); err != nil || !bytes.Equal(back, v2) {
			t.Fatalf("sync completed on the superseded flush: store holds stale bytes (err=%v)", err)
		}
	case <-time.After(200 * time.Millisecond):
		// Still draining, as it should be; admit the redirty flush.
	}
	closeOnce.Do(func() { close(step.tokens) })
	if err := <-syncDone; err != nil {
		t.Fatal(err)
	}
	back := make([]byte, 512)
	if _, err := mem.ReadAt(9, back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, v2) {
		t.Fatal("synced store lost the re-written (redirtied) bytes")
	}
}

// TestSyncTerminatesUnderSustainedWrites: a sync only promises
// durability for writes acknowledged before it, so it must return while
// another client keeps dirtying blocks faster than the (slow) store
// drains them — the drain snapshots the pre-sync staged blocks instead
// of waiting for a global dirty count of zero.
func TestSyncTerminatesUnderSustainedWrites(t *testing.T) {
	slow := &slowStore{Store: NewMemStore(), delay: 2 * time.Millisecond}
	e := memEnvStore(t, slow, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	writer := e.client(t, "writer")
	stop := make(chan struct{})
	done := make(chan struct{})
	page := pattern(3, 512)
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := writer.WriteBlock(3, uint32(i%64), page); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	c := e.client(t, "syncer")
	for k := 0; k < 3; k++ {
		start := time.Now()
		if err := c.Sync(0); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("sync %d starved by concurrent writes (%v)", k, d)
		}
	}
	close(stop)
	<-done
}

// TestOverloadGoodputWithRetry drives more concurrent writers than a
// deliberately slow server can absorb — one worker, and a dirty budget of
// one block, so every write's stage waits out the previous block's
// 300 µs store write — so the kernel sheds Sends with overload Nacks,
// and the stubs' backoff retry must still land every write exactly once.
// Goodput is measured at two receive-queue depths (the ROADMAP's
// overload experiment).
func TestOverloadGoodputWithRetry(t *testing.T) {
	for _, depth := range []int{2, 32} {
		depth := depth
		t.Run(fmt.Sprintf("queue=%d", depth), func(t *testing.T) {
			slow := &slowStore{Store: NewMemStore(), delay: 300 * time.Microsecond}
			e := memEnvStore(t, slow, ipc.FaultConfig{}, ipc.NodeConfig{},
				Config{DirtyBudget: -1, Workers: 1, ReceiveQueueDepth: depth})
			const clients, writes = 8, 20
			var retries atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			start := time.Now()
			for g := 0; g < clients; g++ {
				c := e.client(t, fmt.Sprintf("app%d", g))
				c.retry = RetryPolicy{Retries: 10_000, Delay: 200 * time.Microsecond, MaxDelay: 2 * time.Millisecond}
				c.sleep = func(d time.Duration) { retries.Add(1); time.Sleep(d) }
				file := uint32(100 + g)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < writes; i++ {
						if err := c.WriteBlock(file, uint32(i), pattern(file, 512)); err != nil {
							errs <- fmt.Errorf("file %d write %d: %w", file, i, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			elapsed := time.Since(start)
			if got := srvCounter(e.srv, "rfs.page_writes"); got != clients*writes {
				t.Fatalf("server executed %d writes, want exactly %d", got, clients*writes)
			}
			nacks := nodeCounter(e.serverNode, "ipc.nacks_sent")
			t.Logf("queue depth %d: goodput %.0f writes/s, %d overload retries, %d nacks",
				depth, float64(clients*writes)/elapsed.Seconds(), retries.Load(), nacks)
			if depth == 2 && retries.Load() == 0 {
				t.Log("note: no overload shedding this run; goodput comparison is vacuous")
			}
		})
	}
}

// fileGatedStore blocks WriteAt for one file only; every other file's
// writes pass (and are counted), so tests can park flushers inside one
// file's backlog while another file stays serviceable.
type fileGatedStore struct {
	Store
	gatedFile uint32
	gate      chan struct{}
	openOnce  sync.Once
	passed    atomic.Int64 // writes to non-gated files
}

func newFileGatedStore(inner Store, file uint32) *fileGatedStore {
	return &fileGatedStore{Store: inner, gatedFile: file, gate: make(chan struct{})}
}

func (g *fileGatedStore) open() { g.openOnce.Do(func() { close(g.gate) }) }

func (g *fileGatedStore) WriteAt(file uint32, p []byte, off int64) error {
	if file == g.gatedFile {
		<-g.gate
	} else {
		g.passed.Add(1)
	}
	return g.Store.WriteAt(file, p, off)
}

// TestPerFileSync: Sync(file) must drain exactly that file's staged
// blocks and return while another file's backlog has every flusher
// parked inside a stalled store — the per-file drain is self-servicing,
// not queued behind the flusher pool.
func TestPerFileSync(t *testing.T) {
	mem := NewMemStore()
	gated := newFileGatedStore(mem, 8) // file 8's writes stall
	e := memEnvStore(t, gated, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{Flushers: 2})
	t.Cleanup(gated.open)
	c := e.client(t, "app")

	// Stack a backlog on the gated file; the flushers will claim
	// it and park inside the store.
	for b := uint32(0); b < 12; b++ {
		if err := c.WriteBlock(8, b, pattern(b, 512)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond) // let the flushers claim and park
	// One block on an independent file.
	want := pattern(99, 512)
	if err := c.WriteBlock(9, 0, want); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	syncer := e.client(t, "syncer")
	go func() { done <- syncer.Sync(9) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("per-file sync waited on another file's gated backlog")
	}
	back := make([]byte, 512)
	if _, err := mem.ReadAt(9, back, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, want) {
		t.Fatal("per-file sync returned before the file's bytes were durable")
	}
	// File 8 must still be undrained — the gate never opened.
	if _, err := mem.Size(8); err != ErrNoFile {
		t.Fatalf("gated file leaked to the store (err=%v)", err)
	}

	// Open the gate; a whole-cache sync drains the backlog.
	gated.open()
	if err := syncer.Sync(0); err != nil {
		t.Fatal(err)
	}
	for b := uint32(0); b < 12; b++ {
		if _, err := mem.ReadAt(8, back, int64(b)*512); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, pattern(b, 512)) {
			t.Fatalf("gated file block %d lost", b)
		}
	}
}

// TestZeroLengthWriteParity: a zero-length write, page or large, behaves
// as it would against the bare store — it creates/extends the file to
// the write's offset and the observed size never transiently grows then
// vanishes.
func TestZeroLengthWriteParity(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "app")
	if err := c.WriteBlock(9, 5, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteLarge(8, 5*512, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(0); err != nil {
		t.Fatal(err)
	}
	for _, file := range []uint32{9, 8} {
		if size, err := c.QueryFile(file); err != nil || size != 5*512 {
			t.Fatalf("file %d: size=%d err=%v, want %d", file, size, err, 5*512)
		}
	}
}

// capStore fails every WriteAt (and Create) that would reach past limit
// bytes, so a write the server lets through at a 4 GiB offset fails in
// the flush instead of growing a MemStore to that size.
type capStore struct {
	Store
	limit int64
}

func (s *capStore) WriteAt(file uint32, p []byte, off int64) error {
	if off+int64(len(p)) > s.limit {
		return fmt.Errorf("capStore: write [%d, %d) past %d", off, off+int64(len(p)), s.limit)
	}
	return s.Store.WriteAt(file, p, off)
}

func (s *capStore) Create(file uint32, size int64) error {
	if size > s.limit {
		return fmt.Errorf("capStore: create of %d bytes past %d", size, s.limit)
	}
	return s.Store.Create(file, size)
}

// TestWriteRangePast4GiB: protocol offsets are 32-bit, so a write whose
// range ends past 2^32 bytes must be refused before any byte is staged —
// a large write whose end wraps would otherwise land its tail on block 0,
// and a page write at a block past 2^32/BlockSize would be logged for the
// replicas at its offset mod 2^32.
func TestWriteRangePast4GiB(t *testing.T) {
	e := memEnvStore(t, &capStore{Store: NewMemStore(), limit: 1 << 30}, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "app")
	page := pattern(4, 512)
	if err := c.WriteBlock(4, 0, page); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(0); err != nil {
		t.Fatal(err)
	}
	bad := srvCounter(e.srv, "rfs.bad_requests")

	if err := c.WriteLarge(4, 0xFFFFFE00, pattern(5, 1024)); !errors.Is(err, ErrBadStatus) {
		t.Errorf("WriteLarge ending past 4 GiB: err=%v, want ErrBadStatus", err)
	}
	if err := c.WriteBlock(4, 1<<32/512, pattern(6, 512)); !errors.Is(err, ErrBadStatus) {
		t.Errorf("WriteBlock at 4 GiB: err=%v, want ErrBadStatus", err)
	}

	got := make([]byte, 512)
	if _, err := c.ReadBlock(4, 0, got); err != nil || !bytes.Equal(got, page) {
		t.Errorf("page 0 changed by a refused write (err=%v)", err)
	}
	if n := srvCounter(e.srv, "rfs.bad_requests") - bad; n != 2 {
		t.Errorf("rfs.bad_requests moved by %d, want 2", n)
	}
	if n := volGauge(e.srv, "dirty_blocks"); n != 0 {
		t.Errorf("%d blocks staged by refused writes", n)
	}
}

// TestAlignedWriteLargeOneStoreWrite: a block-aligned 64 KB write is
// staged as one extent, adding no block entry to the cache, so the
// flushers find it whole and write it back as one store write carrying
// its bytes — not as runs cut where a flusher woke mid-train. 64 such
// writes over 8 files, each synced, make exactly 64 store writes.
func TestAlignedWriteLargeOneStoreWrite(t *testing.T) {
	for _, flavor := range []string{"mem", "udp"} {
		t.Run(flavor, func(t *testing.T) {
			rec := newOrderStore(NewMemStore(), 0)
			rec.open()
			cs := &countStore{Store: rec}
			var e *env
			if flavor == "mem" {
				e = memEnvStore(t, cs, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
			} else {
				e = udpEnvStore(t, cs, Config{})
			}
			c := e.client(t, "app")
			const writes, files, size = 64, 8, 64 << 10
			for w := 0; w < writes; w++ {
				file, off := uint32(1+w%files), uint32(w/files*size)
				if err := c.WriteLarge(file, off, pattern(uint32(w), size)); err != nil {
					t.Fatal(err)
				}
				if n := resident(e.srv, file); n != 0 {
					t.Fatalf("write %d added %d block entries to the cache, want 0", w, n)
				}
				if err := c.Sync(file); err != nil {
					t.Fatal(err)
				}
				ws := rec.writesTo(file)
				if last := ws[len(ws)-1]; last.off != int64(off) || !bytes.Equal(last.data, pattern(uint32(w), size)) {
					t.Fatalf("write %d: the store write carried %d bytes at %d, not the extent's", w, len(last.data), last.off)
				}
			}
			if n := cs.writes.Load(); n != writes {
				t.Fatalf("%d aligned 64 KB writes made %d store writes, want one each", writes, n)
			}
			for w := 0; w < writes; w++ {
				got := make([]byte, size)
				if _, err := e.store.ReadAt(uint32(1+w%files), got, int64(w/files*size)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, pattern(uint32(w), size)) {
					t.Fatalf("write %d did not land intact", w)
				}
			}
		})
	}
}

// writeHookStore runs hook before every store write.
type writeHookStore struct {
	Store
	hook func()
}

func (s *writeHookStore) WriteAt(file uint32, p []byte, off int64) error {
	s.hook()
	return s.Store.WriteAt(file, p, off)
}

// TestTrainLongerThanBudget: a 64 KB train is longer than a dirty budget
// of 1 or 16 blocks; it is staged part by part as the flushers free
// room, completes, never holds more than the budget of non-clean blocks
// (sampled from inside the store's write hook, while flushes are in
// flight), and reads back intact — an unaligned write over it too, whose
// head and tail blocks merge with the first.
func TestTrainLongerThanBudget(t *testing.T) {
	for _, tc := range []struct{ cfg, budget int }{{-1, 1}, {16, 16}} {
		t.Run(fmt.Sprintf("budget=%d", tc.budget), func(t *testing.T) {
			var srv atomic.Pointer[Server]
			var peak atomic.Int64
			store := &writeHookStore{Store: NewMemStore(), hook: func() {
				n := volGauge(srv.Load(), "dirty_blocks")
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
			}}
			e := memEnvStore(t, store, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{DirtyBudget: tc.cfg})
			srv.Store(e.srv)
			c := e.client(t, "app")

			const size = 64 << 10
			want := pattern(1, size+1000)
			if err := c.WriteLarge(5, 0, want[:size]); err != nil {
				t.Fatal(err)
			}
			over := pattern(2, size)
			copy(want[300:], over)
			if err := c.WriteLarge(5, 300, over); err != nil {
				t.Fatal(err)
			}
			want = want[:300+size]
			got := make([]byte, len(want))
			if n, err := c.ReadLarge(5, 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
				t.Fatalf("read back n=%d err=%v, equal=%v", n, err, bytes.Equal(got, want))
			}
			if err := c.Sync(0); err != nil {
				t.Fatal(err)
			}
			if p := peak.Load(); p > int64(tc.budget) || p == 0 {
				t.Fatalf("peak non-clean blocks during flushes %d, budget %d", p, tc.budget)
			}
			clear(got)
			if _, err := e.store.ReadAt(5, got, 0); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("store holds other bytes than were written (err=%v)", err)
			}
		})
	}
}

// TestLargeWriteKeepDropRules: the blocks a large write stages leave the
// cache once written back, unless a page access made them pages first or
// the write-back failed; every byte reads back exactly, through large
// and page reads, before write-back and after.
func TestLargeWriteKeepDropRules(t *testing.T) {
	const file, size = 3, 64 << 10
	img := pattern(2, size)
	blk := func(p []byte, b int) []byte { return p[b*512 : (b+1)*512] }
	// harness is one case's server: writes reach mem through the gate (shut
	// until writeBack), failing every write when fail is set. Once the
	// write-back has settled, kept blocks of the file are cached and
	// drops were dropped at write-back.
	type harness struct {
		t           *testing.T
		e           *env
		c           *Client
		mem         Store
		cs          *countStore
		gated       *gatedStore
		kept, drops int
	}
	settled := func(h *harness) {
		h.t.Helper()
		if n := resident(h.e.srv, file); n != h.kept {
			h.t.Errorf("%d blocks of the file cached after write-back, want %d", n, h.kept)
		}
		if n := volGauge(h.e.srv, "writeback_drops"); n != int64(h.drops) {
			h.t.Errorf("writeback_drops = %d, want %d", n, h.drops)
		}
	}
	write := func(h *harness, off uint32, p []byte) {
		h.t.Helper()
		if err := h.c.WriteLarge(file, off, p); err != nil {
			h.t.Fatal(err)
		}
	}
	writeBack := func(h *harness) {
		h.t.Helper()
		h.gated.open()
		if err := h.e.srv.Flush(); err != nil {
			h.t.Fatal(err)
		}
		settled(h)
	}
	// readBlock checks page b and returns the store reads it cost.
	readBlock := func(h *harness, b uint32, want []byte) int64 {
		h.t.Helper()
		before := h.cs.reads.Load()
		got := make([]byte, 512)
		if _, err := h.c.ReadBlock(file, b, got); err != nil || !bytes.Equal(got, want) {
			h.t.Fatalf("ReadBlock(%d): err=%v or other bytes than were written", b, err)
		}
		return h.cs.reads.Load() - before
	}
	readLarge := func(h *harness, want []byte) {
		h.t.Helper()
		got := make([]byte, len(want))
		if n, err := h.c.ReadLarge(file, 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
			h.t.Fatalf("ReadLarge: n=%d err=%v, equal=%v", n, err, bytes.Equal(got, want))
		}
	}
	for _, tc := range []struct {
		name        string
		fail        bool
		kept, drops int
		run         func(*harness)
	}{
		{"read back before and after write-back", false, 1, 127, func(h *harness) {
			write(h, 0, img)
			readLarge(h, img)
			readBlock(h, 7, blk(img, 7)) // a page read: block 7 stays
			writeBack(h)
			readLarge(h, img)
			for b := range size / 512 {
				readBlock(h, uint32(b), blk(img, b))
			}
		}},
		{"page hit while dirty stays cached", false, 1, 127, func(h *harness) {
			write(h, 0, img)
			readBlock(h, 2, blk(img, 2))
			writeBack(h)
			if n := readBlock(h, 2, blk(img, 2)); n != 0 {
				h.t.Errorf("re-reading the page cost %d store reads, want 0", n)
			}
		}},
		{"large write over a warm page", false, 1, 127, func(h *harness) {
			old := pattern(1, size)
			seed(h.t, h.mem, file, old)
			readBlock(h, 4, blk(old, 4))
			write(h, 0, img)
			writeBack(h)
			if n := readBlock(h, 4, blk(img, 4)); n != 0 {
				h.t.Errorf("re-reading the warm page cost %d store reads, want 0", n)
			}
			readLarge(h, img)
		}},
		{"page write over a write-behind-only block", false, 1, 127, func(h *harness) {
			write(h, 0, img)
			page := pattern(9, 512)
			if err := h.c.WriteBlock(file, 9, page); err != nil {
				h.t.Fatal(err)
			}
			writeBack(h)
			if n := readBlock(h, 9, page); n != 0 {
				h.t.Errorf("re-reading the written page cost %d store reads, want 0", n)
			}
		}},
		{"unaligned writes pin no head or tail block", false, 0, 257, func(h *harness) {
			want := pattern(1, 2*size+1024)
			seed(h.t, h.mem, file, want)
			// The second write's head block is the first's tail, still
			// staged: fetching its old image must not make it a page.
			for _, off := range []uint32{300, 300 + size} {
				write(h, off, img)
				copy(want[off:], img)
			}
			writeBack(h)
			readLarge(h, want)
		}},
		{"failed write-back keeps the blocks", true, size / 512, 0, func(h *harness) {
			seed(h.t, h.mem, file, pattern(1, size)) // the store keeps these
			write(h, 0, img)
			h.gated.open()
			deadline := time.Now().Add(5 * time.Second)
			for volGauge(h.e.srv, "flush_errs") == 0 || volGauge(h.e.srv, "dirty_blocks") != 0 {
				if time.Now().After(deadline) {
					h.t.Fatal("the write-back never failed")
				}
				time.Sleep(time.Millisecond)
			}
			settled(h)
			if n := readBlock(h, 5, blk(img, 5)); n != 0 {
				h.t.Errorf("reading a block whose write-back failed cost %d store reads, want 0", n)
			}
			readLarge(h, img)
			if err := h.e.srv.Flush(); !errors.Is(err, errBadDevice) {
				h.t.Errorf("Flush after the failed write-back = %v, want %v", err, errBadDevice)
			}
		}},
	} {
		for _, flavor := range []string{"mem", "udp"} {
			t.Run(flavor+"/"+tc.name, func(t *testing.T) {
				mem := NewMemStore()
				var inner Store = mem
				if tc.fail {
					inner = &failingFileStore{Store: mem, badFile: file}
				}
				gated := newGatedStore(inner)
				cs := &countStore{Store: gated}
				cfg := Config{DirtyBudget: 512} // room for every case's staged blocks
				var e *env
				if flavor == "mem" {
					e = memEnvStore(t, cs, ipc.FaultConfig{}, ipc.NodeConfig{}, cfg)
				} else {
					e = udpEnvStore(t, cs, cfg)
				}
				t.Cleanup(gated.open)
				tc.run(&harness{t: t, e: e, c: e.client(t, "app"), mem: mem, cs: cs, gated: gated, kept: tc.kept, drops: tc.drops})
			})
		}
	}
}

// TestLargeWriteDropRaces: page reads and syncs of one file run against
// a stream of large writes to it, first while write-back is held, then
// while the flushers drop the blocks they write back. Every page read
// returns one whole write's bytes, never older than the last write
// acknowledged before it began; a sync issued while write-back is held
// waits for it and returns once it lands, treating the blocks dropped at
// write-back as written; the file ends as the last write left it.
func TestLargeWriteDropRaces(t *testing.T) {
	const file, size, rounds = 4, 128 << 10, 24
	const readBlocks = size / 512 / 2 // readers page only the first train
	gated := newGatedStore(NewMemStore())
	e := memEnvStore(t, gated, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	t.Cleanup(gated.open)
	image := func(r int) []byte { return bytes.Repeat([]byte{byte(r)}, size) }
	w := e.client(t, "writer")
	if err := w.WriteLarge(file, 0, image(1)); err != nil {
		t.Fatal(err)
	}

	var acked atomic.Int64
	acked.Store(1)
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for i := range 2 {
		r := e.client(t, fmt.Sprintf("reader%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			page := make([]byte, 512)
			for b := uint32(i); ; b = (b + 7) % readBlocks {
				select {
				case <-stop:
					return
				default:
				}
				floor := acked.Load()
				if _, err := r.ReadBlock(file, b, page); err != nil {
					errs <- err
					return
				}
				if int64(page[0]) < floor || !bytes.Equal(page, bytes.Repeat(page[:1], 512)) {
					errs <- fmt.Errorf("page %d read write %d's bytes (or a mix) after write %d was acknowledged", b, page[0], floor)
					return
				}
			}
		}()
	}

	s := e.client(t, "syncer")
	synced := make(chan error, 1)
	for r := 2; r <= rounds; r++ {
		switch r {
		case 4:
			go func() { synced <- s.Sync(file) }()
		case 8:
			select {
			case err := <-synced:
				t.Fatalf("Sync returned (err=%v) while write-back was held", err)
			default:
			}
			gated.open()
			if err := <-synced; err != nil {
				t.Fatalf("Sync: %v", err)
			}
		}
		if err := w.WriteLarge(file, 0, image(r)); err != nil {
			t.Fatal(err)
		}
		acked.Store(int64(r))
		if r > 8 && r%4 == 0 {
			if err := s.Sync(file); err != nil {
				t.Fatalf("Sync: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if err := e.srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if volGauge(e.srv, "writeback_drops") == 0 {
		t.Error("no block was dropped at write-back")
	}
	c := e.srv.volumes[DefaultVolume].cache
	c.mu.Lock()
	for b := uint32(readBlocks); b < size/512; b++ {
		if _, ok := c.lru.Find(blockID{file: file, block: b}); ok {
			t.Errorf("block %d, which no page read touched, stayed cached", b)
		}
	}
	c.mu.Unlock()
	got := make([]byte, size)
	if n, err := w.ReadLarge(file, 0, got); err != nil || n != size || !bytes.Equal(got, image(rounds)) {
		t.Fatalf("ReadLarge after the stream: n=%d err=%v, last write intact=%v", n, err, bytes.Equal(got, image(rounds)))
	}
	page := make([]byte, 512)
	for b := uint32(0); b < size/512; b++ {
		if _, err := w.ReadBlock(file, b, page); err != nil || !bytes.Equal(page, image(rounds)[:512]) {
			t.Fatalf("ReadBlock(%d) after the stream: err=%v or not the last write", b, err)
		}
	}
}

// orderStore records every store write in the order the store is asked
// for them, ahead of a gate on one file (gated 0: on every file), so a
// write begun before an older one finished shows out of order; entered
// gets a token for each write held at the gate, and a write to a gated
// file begun once the gate is open takes delay.
type orderStore struct {
	Store
	gated    uint32
	gate     chan struct{}
	openOnce sync.Once
	entered  chan struct{}
	delay    time.Duration // set before open
	mu       sync.Mutex
	log      []storeWrite
}

type storeWrite struct {
	file uint32
	off  int64
	data []byte
}

func newOrderStore(inner Store, gated uint32) *orderStore {
	return &orderStore{Store: inner, gated: gated, gate: make(chan struct{}), entered: make(chan struct{}, 1024)}
}

func (s *orderStore) open() { s.openOnce.Do(func() { close(s.gate) }) }

func (s *orderStore) WriteAt(file uint32, p []byte, off int64) error {
	s.mu.Lock()
	s.log = append(s.log, storeWrite{file, off, bytes.Clone(p)})
	s.mu.Unlock()
	if s.gated == 0 || file == s.gated {
		select {
		case <-s.gate:
			time.Sleep(s.delay)
		default:
			s.entered <- struct{}{}
			<-s.gate
		}
	}
	return s.Store.WriteAt(file, p, off)
}

// writesTo returns the recorded store writes to file, in store order.
func (s *orderStore) writesTo(file uint32) []storeWrite {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []storeWrite
	for _, w := range s.log {
		if w.file == file {
			out = append(out, w)
		}
	}
	return out
}

// TestExtentRules: a large write is staged as one extent, never waited
// on by a later write. A page write or a newer extent landing on an
// extent a flusher has claimed is staged at once and reaches the store
// after it; a newer extent over a pending one supersedes it, unwritten;
// a failed extent write-back stays readable without store reads. Every
// case reads its bytes back through page and large reads.
func TestExtentRules(t *testing.T) {
	const file, size = 3, 64 << 10
	type harness struct {
		t     *testing.T
		e     *env
		c     *Client
		store *orderStore
		cs    *countStore
	}
	// within runs f, failing the test if it has not returned in 5 s: a
	// write that waits on a held write-back would hang there.
	within := func(h *harness, what string, f func() error) {
		h.t.Helper()
		done := make(chan error, 1)
		go func() { done <- f() }()
		select {
		case err := <-done:
			if err != nil {
				h.t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(5 * time.Second):
			h.t.Fatalf("%s waited on a held write-back", what)
		}
	}
	// claimed waits until a flusher holds another write at the gate.
	claimed := func(h *harness) {
		h.t.Helper()
		select {
		case <-h.store.entered:
		case <-time.After(5 * time.Second):
			h.t.Fatal("no flusher claimed the write")
		}
	}
	readBack := func(h *harness, want []byte) {
		h.t.Helper()
		got := make([]byte, len(want))
		if n, err := h.c.ReadLarge(file, 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
			h.t.Fatalf("ReadLarge: n=%d err=%v, equal=%v", n, err, bytes.Equal(got, want))
		}
		page := make([]byte, 512)
		for b := 0; b < len(want)/512; b++ {
			if _, err := h.c.ReadBlock(file, uint32(b), page); err != nil || !bytes.Equal(page, want[b*512:(b+1)*512]) {
				h.t.Fatalf("ReadBlock(%d): err=%v or other bytes than were written", b, err)
			}
		}
	}
	// landed checks the file's store writes, in store order, and the
	// store's final bytes.
	landed := func(h *harness, want []byte, writes ...storeWrite) {
		h.t.Helper()
		h.store.open()
		if err := h.e.srv.Flush(); err != nil {
			h.t.Fatal(err)
		}
		got := h.store.writesTo(file)
		if len(got) != len(writes) {
			h.t.Fatalf("%d store writes to the file, want %d", len(got), len(writes))
		}
		for i, w := range writes {
			if got[i].off != w.off || !bytes.Equal(got[i].data, w.data) {
				h.t.Fatalf("store write %d: %d bytes at %d, want %d at %d (or other bytes)", i, len(got[i].data), got[i].off, len(w.data), w.off)
			}
		}
		img := make([]byte, len(want))
		if _, err := h.store.Store.ReadAt(file, img, 0); err != nil || !bytes.Equal(img, want) {
			h.t.Fatalf("the store holds other bytes than were written (err=%v)", err)
		}
		if n := volGauge(h.e.srv, "staged_extents"); n != 0 {
			h.t.Errorf("staged_extents = %d after Flush, want 0", n)
		}
	}
	img1, img2 := pattern(1, size), pattern(2, size)
	for _, tc := range []struct {
		name   string
		gated  uint32 // 0: every file
		cfg    Config
		failed bool
		run    func(*harness)
	}{
		{"page writes onto and past a claimed extent", 0, Config{}, false, func(h *harness) {
			if err := h.c.WriteLarge(file, 0, img1); err != nil {
				h.t.Fatal(err)
			}
			claimed(h)
			on, past := pattern(9, 512), pattern(10, 512)
			within(h, "WriteBlock", func() error { return h.c.WriteBlock(file, size/512-1, on) })
			within(h, "WriteBlock", func() error { return h.c.WriteBlock(file, size/512, past) })
			claimed(h) // the page past the extent goes at once, alone
			if n := volGauge(h.e.srv, "dirty_blocks"); n != size/512+1 {
				h.t.Errorf("dirty_blocks = %d, want %d: the page on the extent counts once", n, size/512+1)
			}
			want := append(bytes.Clone(img1), past...)
			copy(want[size-512:], on)
			readBack(h, want)
			landed(h, want, storeWrite{file, 0, img1}, storeWrite{file, size, past}, storeWrite{file, size - 512, on})
			if n := resident(h.e.srv, file); n != size/512+1 {
				// Every block was page-read back above; each stays a page.
				h.t.Errorf("%d blocks cached, want %d", n, size/512+1)
			}
		}},
		{"large write over a claimed page write", 0, Config{}, false, func(h *harness) {
			page := pattern(9, 512)
			if err := h.c.WriteBlock(file, 9, page); err != nil {
				h.t.Fatal(err)
			}
			claimed(h)
			within(h, "WriteLarge", func() error { return h.c.WriteLarge(file, 0, img2) })
			claimed(h)
			readBack(h, img2)
			// The page's in-flight write-back is older than the extent, so
			// its block is written again, with the extent's bytes, after it.
			landed(h, img2, storeWrite{file, 9 * 512, page}, storeWrite{file, 0, img2}, storeWrite{file, 9 * 512, img2[9*512 : 10*512]})
		}},
		{"sync waits for the extent superseding its own", 0, Config{}, false, func(h *harness) {
			if err := h.c.WriteLarge(file, 0, img1); err != nil {
				h.t.Fatal(err)
			}
			claimed(h)
			// Pending behind the claimed extent, until superseded.
			if err := h.c.WriteLarge(file, 0, pattern(4, size)); err != nil {
				h.t.Fatal(err)
			}
			syncer := h.e.client(h.t, "syncer")
			synced := make(chan error, 1)
			go func() { synced <- syncer.Sync(file) }()
			time.Sleep(20 * time.Millisecond) // let the sync begin waiting
			within(h, "WriteLarge", func() error { return h.c.WriteLarge(file, 0, img2) })
			select {
			case err := <-synced:
				h.t.Fatalf("Sync returned (err=%v) while write-back was held", err)
			case <-time.After(20 * time.Millisecond):
			}
			h.store.delay = 50 * time.Millisecond // the superseding write-back lands late
			h.store.open()
			if err := <-synced; err != nil {
				h.t.Fatal(err)
			}
			got := make([]byte, size)
			if _, err := h.store.Store.ReadAt(file, got, 0); err != nil || !bytes.Equal(got, img2) {
				h.t.Fatalf("Sync returned before the extent superseding its own was on the store (err=%v)", err)
			}
			landed(h, img2, storeWrite{file, 0, img1}, storeWrite{file, 0, img2})
		}},
		{"newer extent over a claimed extent", 0, Config{}, false, func(h *harness) {
			if err := h.c.WriteLarge(file, 0, img1); err != nil {
				h.t.Fatal(err)
			}
			claimed(h)
			within(h, "WriteLarge", func() error { return h.c.WriteLarge(file, 0, img2) })
			if n := volGauge(h.e.srv, "staged_extents"); n != 2 {
				h.t.Errorf("staged_extents = %d, want 2", n)
			}
			if n := volGauge(h.e.srv, "dirty_blocks"); n != size/512 {
				h.t.Errorf("dirty_blocks = %d, want %d: each block counts once", n, size/512)
			}
			readBack(h, img2)
			landed(h, img2, storeWrite{file, 0, img1}, storeWrite{file, 0, img2})
		}},
		{"newer extent over a pending extent", 7, Config{Flushers: 1}, false, func(h *harness) {
			if err := h.c.WriteLarge(7, 0, img1); err != nil { // parks the one flusher
				h.t.Fatal(err)
			}
			claimed(h)
			for _, img := range [][]byte{img1, img2} {
				within(h, "WriteLarge", func() error { return h.c.WriteLarge(file, 0, img) })
			}
			if n := volGauge(h.e.srv, "staged_extents"); n != 2 {
				h.t.Errorf("staged_extents = %d, want 2 (file 7's and the newer one)", n)
			}
			if n := resident(h.e.srv, file); n != 0 {
				h.t.Errorf("%d blocks of the file cached, want 0", n)
			}
			landed(h, img2, storeWrite{file, 0, img2})
			readBack(h, img2)
		}},
		{"failed extent write-back", 0, Config{}, true, func(h *harness) {
			if err := h.c.WriteLarge(file, 0, img1); err != nil {
				h.t.Fatal(err)
			}
			h.store.open()
			deadline := time.Now().Add(5 * time.Second)
			for volGauge(h.e.srv, "flush_errs") == 0 || volGauge(h.e.srv, "dirty_blocks") != 0 {
				if time.Now().After(deadline) {
					h.t.Fatal("the write-back never failed")
				}
				time.Sleep(time.Millisecond)
			}
			reads := h.cs.reads.Load()
			readBack(h, img1)
			if n := h.cs.reads.Load() - reads; n != 0 {
				h.t.Errorf("reading the extent whose write-back failed cost %d store reads, want 0", n)
			}
			if err := h.e.srv.Flush(); !errors.Is(err, errBadDevice) {
				h.t.Errorf("Flush after the failed write-back = %v, want %v", err, errBadDevice)
			}
		}},
	} {
		for _, flavor := range []string{"mem", "udp"} {
			t.Run(flavor+"/"+tc.name, func(t *testing.T) {
				mem := NewMemStore()
				var inner Store = mem
				if tc.failed {
					seed(t, mem, file, pattern(5, size)) // the store keeps these
					inner = &failingFileStore{Store: mem, badFile: file}
				}
				store := newOrderStore(inner, tc.gated)
				cs := &countStore{Store: store}
				var e *env
				if flavor == "mem" {
					e = memEnvStore(t, cs, ipc.FaultConfig{}, ipc.NodeConfig{}, tc.cfg)
				} else {
					e = udpEnvStore(t, cs, tc.cfg)
				}
				t.Cleanup(store.open)
				tc.run(&harness{t: t, e: e, c: e.client(t, "app"), store: store, cs: cs})
			})
		}
	}
}

// TestExtentRaces: one writer's sequence of overlapping large writes,
// page writes and truncates of one file runs against page readers,
// large readers and syncers, first while write-back is held (the first
// truncate waits for it to open), then while the flushers write extents
// back. Every block any reader sees is one whole write's (or a
// truncate's zeros), never a mix; the file ends as the sequence left it,
// through the cache and on the store.
func TestExtentRaces(t *testing.T) {
	const file, blocks, ops = 6, 256, 96
	store := newOrderStore(NewMemStore(), 0)
	e := memEnvStore(t, store, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	t.Cleanup(store.open)
	w := e.client(t, "writer")
	if err := w.CreateFile(file, blocks*512); err != nil {
		t.Fatal(err)
	}
	uniform := func(b []byte) bool { return bytes.Equal(b, bytes.Repeat(b[:1], len(b))) }

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	loop := func(name string, body func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := body(); err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
					return
				}
			}
		}()
	}
	for i := range 2 {
		r := e.client(t, fmt.Sprintf("pager%d", i))
		page, b := make([]byte, 512), uint32(i)
		loop("pager", func() error {
			b = (b + 37) % blocks
			if _, err := r.ReadBlock(file, b, page); err != nil {
				return err
			}
			if !uniform(page) {
				return fmt.Errorf("block %d mixes writes", b)
			}
			return nil
		})
	}
	lr := e.client(t, "streamer")
	buf, at := make([]byte, 96<<10), uint32(0)
	loop("streamer", func() error {
		at = (at + 40*512) % (blocks * 512 / 2)
		if _, err := lr.ReadLarge(file, at, buf); err != nil {
			return err
		}
		for b := 0; b < len(buf); b += 512 {
			if !uniform(buf[b : b+512]) {
				return fmt.Errorf("block %d of a large read mixes writes", int(at)/512+b/512)
			}
		}
		return nil
	})
	sy := e.client(t, "syncer")
	loop("syncer", func() error { return sy.Sync(file) })

	// The writer's sequence, mirrored in want: write i stamps value i.
	want := make([]byte, blocks*512)
	rng := rand.New(rand.NewSource(6))
	for i := 1; i <= ops; i++ {
		v := byte(i)
		switch k := rng.Intn(10); {
		case i == ops/2:
			// Truncate while write-back is held: it waits for the claimed
			// extents, so the gate opens meanwhile.
			time.AfterFunc(20*time.Millisecond, store.open)
			fallthrough
		case k == 0 && i > ops/2: // a truncate waits out claimed write-backs
			if err := w.CreateFile(file, blocks*512); err != nil {
				t.Fatal(err)
			}
			clear(want)
		case k < 3:
			b := uint32(rng.Intn(blocks))
			page := bytes.Repeat([]byte{v}, 512)
			if err := w.WriteBlock(file, b, page); err != nil {
				t.Fatal(err)
			}
			copy(want[b*512:], page)
		default:
			first, n := rng.Intn(blocks-16), 16+rng.Intn(112)
			n = min(n, blocks-first)
			img := bytes.Repeat([]byte{v}, n*512)
			if err := w.WriteLarge(file, uint32(first*512), img); err != nil {
				t.Fatal(err)
			}
			copy(want[first*512:], img)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := e.srv.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := w.ReadLarge(file, 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("ReadLarge after the sequence: n=%d err=%v, intact=%v", n, err, bytes.Equal(got, want))
	}
	page := make([]byte, 512)
	for b := 0; b < blocks; b++ {
		if _, err := w.ReadBlock(file, uint32(b), page); err != nil || !bytes.Equal(page, want[b*512:(b+1)*512]) {
			t.Fatalf("ReadBlock(%d) after the sequence: err=%v or not the last write", b, err)
		}
	}
	clear(got)
	if _, err := store.Store.ReadAt(file, got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the store holds other bytes than the sequence left (err=%v)", err)
	}
	if n := volGauge(e.srv, "dirty_blocks"); n != 0 {
		t.Errorf("dirty_blocks = %d after Flush, want 0", n)
	}
}
