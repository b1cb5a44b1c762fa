package rfs

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/ipc"
	"vkernel/internal/rfs/ccache"
	"vkernel/internal/vproto"
)

// cachingClient attaches a fresh process on the client node and binds a
// caching client to the server.
func (e *env) cachingClient(t testing.TB, name string, cfg CacheClientConfig) *CachingClient {
	t.Helper()
	p, err := e.clientNode.Attach(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCachingClient(p, e.srv.Pid(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		e.clientNode.Detach(p)
	})
	return c
}

// setNow installs a fake clock on a caching client (staleness-bound
// tests age the lease without sleeping).
func (c *CachingClient) setNow(f func() time.Time) {
	c.mu.Lock()
	c.now = f
	c.mu.Unlock()
}

// setNow installs a fake clock on the server-side registry.
func (r *cacheRegistry) setNow(f func() time.Time) {
	r.mu.Lock()
	r.now = f
	r.mu.Unlock()
}

// TestClientCacheWarmHits: repeated page reads must be served from the
// client cache — the server sees each block once — and the bytes must
// stay correct.
func TestClientCacheWarmHits(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.cachingClient(t, "app", CacheClientConfig{})

	const blocks = 8
	data := pattern(1, blocks*512)
	if err := e.store.WriteAt(1, data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for round := 0; round < 5; round++ {
		for b := uint32(0); b < blocks; b++ {
			if _, err := c.ReadBlock(1, b, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, data[b*512:(b+1)*512]) {
				t.Fatalf("round %d block %d corrupted", round, b)
			}
		}
	}
	if got := srvCounter(e.srv, "rfs.page_reads"); got != blocks {
		t.Fatalf("server saw %d page reads, want %d (one per block)", got, blocks)
	}
	st := c.Stats()
	if st.Hits != 4*blocks || st.Misses != blocks {
		t.Fatalf("client cache stats: %+v", st)
	}

	// Partial reads are served from the cached page without a server trip.
	small := make([]byte, 64)
	if n, err := c.ReadBlock(1, 2, small); err != nil || n != 64 {
		t.Fatalf("partial read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(small, data[2*512:2*512+64]) {
		t.Fatal("partial read from cache corrupted")
	}
	if got := srvCounter(e.srv, "rfs.page_reads"); got != blocks {
		t.Fatalf("partial read went to the server (%d reads)", got)
	}
}

// checkInvalidationConsistency drives the acceptance scenario: a reader
// with a warm client cache and a writer on the same file; after every
// acknowledged write the reader must observe the new bytes
// (read-your-writes across clients), because the server calls the
// reader's cache back before acknowledging the writer.
func checkInvalidationConsistency(t *testing.T, e *env) {
	t.Helper()
	reader := e.cachingClient(t, "reader", CacheClientConfig{})
	writer := e.cachingClient(t, "writer", CacheClientConfig{})

	const blocks = 4
	for b := uint32(0); b < blocks; b++ {
		if err := writer.WriteBlock(40, b, versionedPage(b, 0)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 512)
	for _, c := range []*CachingClient{reader, writer} {
		for b := uint32(0); b < blocks; b++ {
			if _, err := c.ReadBlock(40, b, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := uint32(1); round <= 8; round++ {
		b := round % blocks
		want := versionedPage(b, round)
		if err := writer.WriteBlock(40, b, want); err != nil {
			t.Fatalf("round %d write: %v", round, err)
		}
		// The write is acknowledged: the reader's cached copy must be gone.
		if _, err := reader.ReadBlock(40, b, buf); err != nil {
			t.Fatalf("round %d read: %v", round, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("round %d: reader served stale bytes after the write was acked", round)
		}
		// And the writer's own copy stayed current too.
		if _, err := writer.ReadBlock(40, b, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("round %d: writer's own cache went stale", round)
		}
	}
	if srvCounter(e.srv, "rfs.cache_callbacks") == 0 {
		t.Fatal("no invalidation callbacks sent")
	}
	if st := reader.Stats(); st.Callbacks == 0 {
		t.Fatalf("reader never received a callback: %+v", st)
	}
}

func TestClientCacheInvalidation(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	checkInvalidationConsistency(t, e)
}

// TestClientCacheInvalidationUnderFaults is the same consistency bar
// over a lossy, duplicating, reordering mesh: callbacks ride the same
// reliable exchange machinery, so consistency must hold as long as the
// retransmission budget does — and the run is vacuous without
// retransmissions actually happening.
func TestClientCacheInvalidationUnderFaults(t *testing.T) {
	e := memEnv(t,
		ipc.FaultConfig{
			DropProb:    0.12,
			DupProb:     0.10,
			CorruptProb: 0.05,
			MaxDelay:    2 * time.Millisecond,
		},
		ipc.NodeConfig{RetransmitTimeout: 10 * time.Millisecond, Retries: 100},
		Config{},
	)
	checkInvalidationConsistency(t, e)
	if nodeCounter(e.serverNode, "ipc.retransmits")+nodeCounter(e.clientNode, "ipc.retransmits") == 0 {
		t.Fatal("no retransmissions under fault injection; test is vacuous")
	}
}

func TestClientCacheInvalidationUDP(t *testing.T) {
	e := udpEnv(t, Config{})
	checkInvalidationConsistency(t, e)
}

// TestClientCacheLargeWriteInvalidates: a streamed WriteLarge must drop
// every touched block in other clients' caches before it is acked.
func TestClientCacheLargeWriteInvalidates(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	reader := e.cachingClient(t, "reader", CacheClientConfig{})
	writer := e.client(t, "writer") // plain client: invalidation must not depend on the writer caching

	base := pattern(50, 16*512)
	if err := writer.WriteLarge(50, 0, base); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for b := uint32(0); b < 16; b++ {
		if _, err := reader.ReadBlock(50, b, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite a span straddling blocks 3..6, unaligned on both ends.
	patch := pattern(51, 1800)
	if err := writer.WriteLarge(50, 3*512+100, patch); err != nil {
		t.Fatal(err)
	}
	copy(base[3*512+100:], patch)
	for b := uint32(0); b < 16; b++ {
		if _, err := reader.ReadBlock(50, b, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, base[b*512:(b+1)*512]) {
			t.Fatalf("block %d stale after acked WriteLarge", b)
		}
	}

	// Truncation drops the whole file from the reader's cache.
	if err := writer.CreateFile(50, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.ReadBlock(50, 0, buf); err != nil {
		t.Fatal(err)
	}
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("byte %d nonzero after acked truncate", i)
		}
	}
}

// hookedWatcher registers a second client-cache watcher for file whose
// callback process runs hook before it replies to each OpInvalidate. The
// server awaits that reply before it acknowledges the writer, so hook
// runs in the middle of the writer's exchange.
func hookedWatcher(t testing.TB, e *env, file uint32, hook func()) {
	t.Helper()
	cb, err := e.clientNode.Attach("hooked-cb")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			_, src, err := cb.Receive()
			if err != nil {
				return
			}
			hook()
			reply := buildReply(StatusOK, 0)
			_ = cb.Reply(&reply, src)
		}
	}()
	t.Cleanup(func() { e.clientNode.Detach(cb); <-done })
	m := buildRequest(DefaultVolume, OpRegisterCache, file, uint32(cb.Pid()), 0)
	if err := e.client(t, "hooked-owner").exchange(&m, nil); err != nil {
		t.Fatal(err)
	}
}

// TestClientCacheWriteRefreshRefused: a client rewrites a page it has
// cached while an invalidation for a neighbouring block (one sharing the
// cache's generation shard) lands between the Snapshot and the Insert of
// WriteBlock. The refresh is refused; the client must then read its own
// write back from the server, not the copy it cached before.
func TestClientCacheWriteRefreshRefused(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.cachingClient(t, "app", CacheClientConfig{})

	const file, block = 40, 3
	neighbour := uint32(block + 1)
	for {
		before := c.cache.Snapshot(file, block)
		c.cache.Invalidate(file, neighbour, 1, 0)
		if c.cache.Snapshot(file, block) != before {
			break
		}
		neighbour++
	}
	if err := c.WriteBlock(file, block, versionedPage(block, 1)); err != nil {
		t.Fatal(err)
	}
	if !c.cache.Contains(file, block) {
		t.Fatal("a whole-page write did not leave the page cached")
	}

	// What the callback process does when another client writes the
	// neighbour, timed to land while our write is at the server.
	var ran atomic.Bool
	hookedWatcher(t, e, file, func() { ran.Store(true); c.cache.Invalidate(file, neighbour, 1, 0) })
	if err := c.WriteBlock(file, block, versionedPage(block, 2)); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("the write was acknowledged before the other watcher's callback ran")
	}

	got := make([]byte, 512)
	if _, err := c.ReadBlock(file, block, got); err != nil {
		t.Fatal(err)
	}
	if v := pageVersion(got); v != 2 {
		t.Fatalf("read back version %d of the page after writing version 2", v)
	}
}

// TestClientCacheStalenessBound is the lost-callback case: a client
// whose callback process died keeps serving its cached (now stale)
// bytes — but only until its lease runs out. The forced re-registration
// returns the file's current version, the mismatch purges the cache,
// and the next read is fresh. The staleness window is exactly bounded
// by the lease.
func TestClientCacheStalenessBound(t *testing.T) {
	const lease = 10 * time.Second
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{CacheLease: lease})
	reader := e.cachingClient(t, "reader", CacheClientConfig{})
	writer := e.client(t, "writer")

	base := time.Now()
	reader.setNow(func() time.Time { return base })

	old := versionedPage(0, 1)
	if err := writer.WriteBlock(60, 0, old); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if _, err := reader.ReadBlock(60, 0, buf); err != nil {
		t.Fatal(err)
	}

	// The reader loses its callback channel (process death stands in for
	// any persistently lost callback).
	e.clientNode.Detach(reader.cb)

	// The writer's update goes through; the server's callback fails and
	// the registration is revoked.
	want := versionedPage(0, 2)
	if err := writer.WriteBlock(60, 0, want); err != nil {
		t.Fatal(err)
	}
	if srvCounter(e.srv, "rfs.cache_callback_errs") == 0 {
		t.Fatal("callback to the dead process did not fail")
	}

	// Within the lease the reader serves the stale page — this IS the
	// documented window, assert it exists so the bound is meaningful.
	if _, err := reader.ReadBlock(60, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, old) {
		t.Fatal("expected the stale page inside the lease window")
	}

	// Past the lease the hit path must renew, spot the version bump and
	// purge: the read comes back fresh.
	reader.setNow(func() time.Time { return base.Add(lease) })
	if _, err := reader.ReadBlock(60, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("stale page survived past the lease")
	}
	if st := reader.Stats(); st.Purges == 0 {
		t.Fatalf("renewal did not purge: %+v", st)
	}
}

// TestClientCacheServerLeaseExpiry is the other half of the lease
// machinery: once a registration expires server-side, writes stop
// paying for callbacks to it — and the client still converges because
// its own (strictly shorter) lease forces the renewal-and-purge first.
func TestClientCacheServerLeaseExpiry(t *testing.T) {
	const lease = 10 * time.Second
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{CacheLease: lease})
	reader := e.cachingClient(t, "reader", CacheClientConfig{})
	writer := e.client(t, "writer")

	base := time.Now()
	reader.setNow(func() time.Time { return base })
	e.srv.registry.setNow(func() time.Time { return base })

	if err := writer.WriteBlock(61, 0, versionedPage(0, 1)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if _, err := reader.ReadBlock(61, 0, buf); err != nil {
		t.Fatal(err)
	}

	// Both clocks jump past the lease. The write must sail through
	// without a callback (the registration is reaped instead).
	reader.setNow(func() time.Time { return base.Add(2 * lease) })
	e.srv.registry.setNow(func() time.Time { return base.Add(2 * lease) })
	before := srvCounter(e.srv, "rfs.cache_callbacks")
	want := versionedPage(0, 2)
	if err := writer.WriteBlock(61, 0, want); err != nil {
		t.Fatal(err)
	}
	if got := srvCounter(e.srv, "rfs.cache_callbacks"); got != before {
		t.Fatalf("write called back an expired registration (%d callbacks)", got-before)
	}
	if srvCounter(e.srv, "rfs.cache_lease_expiries") == 0 {
		t.Fatal("expired registration not reaped")
	}

	// The reader's own lease expired too, so the next read renews,
	// purges on the version mismatch and returns fresh bytes.
	if _, err := reader.ReadBlock(61, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("reader served stale bytes after both leases expired")
	}
}

// TestClientCacheVersionGapPurges closes the write-reply loophole in
// the staleness bound: a client whose registration was silently revoked
// (its callback process died) misses an invalidation, then writes a
// DIFFERENT block of the same file. The write reply's version skips
// ahead of the client's last known version — proof of the missed
// invalidation — and must purge the cached blocks immediately, even
// though the client's lease is still fresh. Without the contiguity
// check the reply would blindly re-sync the version, the next renewal
// would find no mismatch, and the stale block would be served forever.
func TestClientCacheVersionGapPurges(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{CacheLease: time.Hour})
	reader := e.cachingClient(t, "reader", CacheClientConfig{})
	writer := e.client(t, "writer")

	old := versionedPage(2, 1)
	if err := writer.WriteBlock(80, 2, old); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if _, err := reader.ReadBlock(80, 2, buf); err != nil { // caches block 2
		t.Fatal(err)
	}
	e.clientNode.Detach(reader.cb) // registration will be revoked on the next callback

	want := versionedPage(2, 2)
	if err := writer.WriteBlock(80, 2, want); err != nil { // reader misses this
		t.Fatal(err)
	}
	// The reader's own write to another block carries a gapped version.
	if err := reader.WriteBlock(80, 5, versionedPage(5, 1)); err != nil {
		t.Fatal(err)
	}
	if st := reader.Stats(); st.Purges == 0 {
		t.Fatalf("version gap in a write reply did not purge: %+v", st)
	}
	// Block 2 must now be refetched — fresh bytes, lease still valid.
	if _, err := reader.ReadBlock(80, 2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("stale block served after a version-gap write reply")
	}
}

// failingFileStore fails every write of one file (the write-back error
// path) and passes the rest through.
type failingFileStore struct {
	Store
	badFile uint32
}

var errBadDevice = fmt.Errorf("rfs test: device write failed")

func (f *failingFileStore) WriteAt(file uint32, p []byte, off int64) error {
	if file == f.badFile {
		return errBadDevice
	}
	return f.Store.WriteAt(file, p, off)
}

// TestPerFileSyncErrorIsolation: a per-file sync must report — and
// clear — only its own file's write-back failures. A sync of a healthy
// file must not steal the failing file's error, and the failing file's
// own sync must still see it.
func TestPerFileSyncErrorIsolation(t *testing.T) {
	failing := &failingFileStore{Store: NewMemStore(), badFile: 8}
	e := memEnvStore(t, failing, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "app")

	if err := c.WriteBlock(8, 0, pattern(8, 512)); err != nil {
		t.Fatal(err)
	}
	// Wait for the eager flusher to hit the failing device.
	deadline := time.Now().Add(2 * time.Second)
	for volGauge(e.srv, "flush_errs") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flush error never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.WriteBlock(9, 0, pattern(9, 512)); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(9); err != nil {
		t.Fatalf("healthy file's sync reported another file's error: %v", err)
	}
	if err := c.Sync(8); err == nil {
		t.Fatal("failing file's sync reported success for lost bytes")
	}
	if err := c.Sync(8); err != nil {
		t.Fatalf("flush error not cleared by the failing file's own sync: %v", err)
	}
}

// TestFailedWriteBackKeepsStagedFile: a file that exists only as one
// staged large write whose write-back failed must not vanish for
// QueryFile and ReadLarge while ReadBlock still serves the blocks the
// failed write left cached — until a sync has reported the failure.
func TestFailedWriteBackKeepsStagedFile(t *testing.T) {
	failing := &failingFileStore{Store: NewMemStore(), badFile: 8}
	e := memEnvStore(t, failing, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "app")

	data := pattern(8, 64<<10)
	if err := c.WriteLarge(8, 0, data); err != nil {
		t.Fatal(err)
	}
	// Wait for the write-back to fail and settle.
	deadline := time.Now().Add(2 * time.Second)
	for volGauge(e.srv, "flush_errs") == 0 || volGauge(e.srv, "dirty_blocks") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the failed write-back never settled")
		}
		time.Sleep(time.Millisecond)
	}
	page := make([]byte, 512)
	if _, err := c.ReadBlock(8, 3, page); err != nil || !bytes.Equal(page, data[3*512:4*512]) {
		t.Fatalf("ReadBlock: err=%v, same bytes=%v; want the written page", err, bytes.Equal(page, data[3*512:4*512]))
	}
	if size, err := c.QueryFile(8); err != nil || size != len(data) {
		t.Fatalf("QueryFile = %d, %v; want %d, as ReadBlock serves the file", size, err, len(data))
	}
	got := make([]byte, len(data))
	if n, err := c.ReadLarge(8, 0, got); err != nil || n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("ReadLarge = %d, %v (same bytes=%v); want the %d bytes ReadBlock serves", n, err, bytes.Equal(got, data), len(data))
	}
	if err := c.Sync(8); err == nil {
		t.Fatal("the file's sync reported success for lost bytes")
	}
}

// TestCallbackTimeoutUnblocksWrites: a registered callback pid that is
// alive but never calls Receive would park the invalidation Send in
// reply-pending forever; the fan-out deadline must revoke it and let
// the write through.
func TestCallbackTimeoutUnblocksWrites(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{CallbackTimeout: 100 * time.Millisecond})
	c := e.client(t, "app")

	// A process that never receives, registered as file 77's callback.
	wedged, err := e.clientNode.Attach("wedged-cb")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.clientNode.Detach(wedged) })
	m := buildRequest(DefaultVolume, OpRegisterCache, 77, uint32(wedged.Pid()), 0)
	if err := c.exchange(&m, nil); err != nil {
		t.Fatal(err)
	}

	writer := e.client(t, "writer")
	start := time.Now()
	if err := writer.WriteBlock(77, 0, pattern(77, 512)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("write stalled %v behind a wedged callback", elapsed)
	}
	if srvCounter(e.srv, "rfs.cache_callback_timeouts") == 0 {
		t.Fatal("fan-out deadline never fired")
	}
	// The registration is revoked: the next write is full speed again.
	start = time.Now()
	if err := writer.WriteBlock(77, 1, pattern(78, 512)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("second write still paid for the revoked callback (%v)", elapsed)
	}
	// The abandoned exchange is still parked in its Send (reply-pending
	// keeps resetting its retries); Server.Close must not wait for it —
	// the wedge costs a disposable goroutine, not the shutdown path.
	closed := make(chan struct{})
	go func() { e.srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close deadlocked behind an abandoned callback exchange")
	}
}

// TestClientCacheConcurrentSharedFile races caching readers against
// writers on one file under the race detector: every read must observe
// some complete write of the block (versionedPage), never a torn or
// resurrected mix, and a final quiesced read must be exactly the last
// write.
func TestClientCacheConcurrentSharedFile(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	seed := e.client(t, "seeder")
	const blocks = 8
	for b := uint32(0); b < blocks; b++ {
		if err := seed.WriteBlock(70, b, versionedPage(b, 0)); err != nil {
			t.Fatal(err)
		}
	}
	const writers, readers, rounds = 2, 3, 30
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		c := e.cachingClient(t, fmt.Sprintf("cwriter%d", w), CacheClientConfig{})
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				b := uint32((w*rounds + r) % blocks)
				v := uint32(w*rounds + r)
				if err := c.WriteBlock(70, b, versionedPage(b, v)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for rd := 0; rd < readers; rd++ {
		c := e.cachingClient(t, fmt.Sprintf("creader%d", rd), CacheClientConfig{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			page := make([]byte, 512)
			for r := 0; r < rounds*2; r++ {
				b := uint32(r % blocks)
				if _, err := c.ReadBlock(70, b, page); err != nil {
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
	// Quiesced: one known write per block must now win everywhere — a
	// fresh caching client and a racing-era one agree on it exactly.
	seed2 := e.client(t, "sealer")
	for b := uint32(0); b < blocks; b++ {
		if err := seed2.WriteBlock(70, b, versionedPage(b, 9999)); err != nil {
			t.Fatal(err)
		}
	}
	c := e.cachingClient(t, "checker", CacheClientConfig{})
	page := make([]byte, 512)
	for b := uint32(0); b < blocks; b++ {
		if _, err := c.ReadBlock(70, b, page); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(page, versionedPage(b, 9999)) {
			t.Fatalf("block %d: quiesced read is not the sealing write", b)
		}
	}
}

// TestDiscoverUnderLoss: broadcast name-service resolution must retry
// through heavy packet loss until the server answers.
func TestDiscoverUnderLoss(t *testing.T) {
	e := memEnv(t,
		ipc.FaultConfig{DropProb: 0.4},
		ipc.NodeConfig{GetPidTimeout: 5 * time.Millisecond, GetPidRetries: 100},
		Config{},
	)
	p, err := e.clientNode.Attach("seeker")
	if err != nil {
		t.Fatal(err)
	}
	defer e.clientNode.Detach(p)
	c, err := Discover(p)
	if err != nil {
		t.Fatalf("Discover failed through 40%% loss: %v", err)
	}
	if c.Server() != e.srv.Pid() {
		t.Fatalf("resolved %v, want %v", c.Server(), e.srv.Pid())
	}
}

// TestDiscoverBoundedFailure: with no server anywhere, Discover must
// give up after the configured attempt budget instead of spinning.
func TestDiscoverBoundedFailure(t *testing.T) {
	leakCheck(t)
	mesh := ipc.NewMemNetwork(7, ipc.FaultConfig{DropProb: 0.4})
	node := ipc.NewNode(2, mesh.Transport(2), ipc.NodeConfig{GetPidTimeout: 2 * time.Millisecond, GetPidRetries: 3})
	t.Cleanup(func() {
		_ = node.Close()
		mesh.Close()
	})
	p, err := node.Attach("seeker")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Detach(p)
	start := time.Now()
	if _, err := Discover(p); err != ErrNoServer {
		t.Fatalf("Discover with no server: err=%v, want ErrNoServer", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Discover failure not bounded: took %v", elapsed)
	}
}

// FuzzInvalidateCallback: a caching client's callback process accepts
// 32-byte Sends from any peer. With blocks of two files cached, whatever
// message arrives must not panic, must be answered OK (an OpInvalidate)
// or BadRequest (anything else), and must change the cache, the file
// versions and the fences only as an OpInvalidate for the client's own
// volume says: exactly the named blocks go, the named file's version
// never moves backward, and the fence of each named block's shard (every
// shard for a range wider than the cache) moves forward to the
// message's sequence, wrapping, while no other fence moves. Every cached
// block is returned to the pool at Close.
func FuzzInvalidateCallback(f *testing.F) {
	const vol, blocks, fenced = 3, 16, 1<<31 + 30
	for _, m := range []ipc.Message{
		buildInvalidate(vol, 7, 1, 2, 6, 0),
		buildInvalidate(vol, 8, 0, InvalidateAll, 10, 41),
		buildInvalidate(vol, 7, 0xFFFFFFFF, 3, 4, 7), // wraps past block 2^32-1
		buildInvalidate(vol, 8, 2, blocks+1, 11, 42), // wider than the cache
		buildInvalidate(vol, 7, 0, 4, 6, fenced-1),   // behind the fences already up
		buildInvalidate(vol, 7, 0, 4, 6, 5),          // ahead of them, past the wrap
		buildInvalidate(vol+1, 7, 0, InvalidateAll, 6, 43),
		buildRequest(vol, OpReadBlock, 7, 0, 512),
	} {
		f.Add(m[:])
	}
	f.Add([]byte{})

	mesh := ipc.NewMemNetwork(1, ipc.FaultConfig{})
	node := ipc.NewNode(1, mesh.Transport(1), ipc.NodeConfig{})
	p, err := node.Attach("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		node.Detach(p)
		_ = node.Close()
		mesh.Close()
	})
	files := map[uint32]uint32{7: 5, 8: 9} // file → version before the message
	f.Fuzz(func(t *testing.T, data []byte) {
		base := bufpool.Outstanding()
		cl := NewClient(p, vproto.Nil)
		cl.vol = vol
		c, err := newCachingClient(p, cl, CacheClientConfig{Blocks: blocks})
		if err != nil {
			t.Fatal(err)
		}
		c.cache.Invalidate(7, 0, 4, fenced)
		before := c.cache.Fences()
		page := make([]byte, c.cache.BlockSize())
		for file, version := range files {
			c.files[file] = &cachedFile{version: version, versioned: true}
			for b := uint32(0); b < 4; b++ {
				c.cache.Insert(file, b, page, c.cache.Snapshot(file, b))
			}
		}

		var msg ipc.Message
		copy(msg[:], data)
		reply := c.callback(&msg)
		op, named, first, count := parseRequest(&msg)
		version, mvol, seq := parseInvalidate(&msg)
		status, _ := parseReply(&reply)
		if want := StatusBadRequest; op == OpInvalidate {
			want = StatusOK
			if status != want {
				t.Fatalf("OpInvalidate answered status %d", status)
			}
		} else if status != want {
			t.Fatalf("op %d answered status %d, want BadRequest", op, status)
		}
		applies := op == OpInvalidate && mvol == vol
		for file, old := range files {
			hit := applies && file == named
			got := c.files[file].version
			switch {
			case !hit && got != old:
				t.Fatalf("file %d version %d → %d on a message that does not name it", file, old, got)
			case hit && got != old && got != version:
				t.Fatalf("file %d version %d → %d, message carried %d", file, old, got, version)
			case hit && ccache.Newer(old, got):
				t.Fatalf("file %d version moved backward %d → %d", file, old, got)
			}
			for b := uint32(0); b < 4; b++ {
				gone := hit && (count == InvalidateAll || count > blocks || b-first < count)
				if c.cache.Contains(file, b) == gone {
					t.Fatalf("file %d block %d: cached=%v after %x", file, b, !gone, msg[:])
				}
			}
		}
		shards := make(map[int]bool) // the shards the message fences
		for i := uint32(0); applies && seq != 0 && i < ccache.Shards; i++ {
			if count > blocks {
				shards[int(i)] = true
			} else if i < count {
				shards[ccache.Shard(named, first+i)] = true
			}
		}
		after := c.cache.Fences()
		for s := range after {
			want := before[s]
			if shards[s] && (want == 0 || ccache.Newer(seq, want)) {
				want = seq
			}
			if after[s] != want {
				t.Fatalf("shard %d fence %d → %d, want %d after %x", s, before[s], after[s], want, msg[:])
			}
		}
		c.Close()
		if n := bufpool.Outstanding(); n != base {
			t.Fatalf("bufpool outstanding %d after Close, was %d", n, base)
		}
	})
}
