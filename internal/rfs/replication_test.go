package rfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/ipc"
)

// replConfig is the two-shard, one-replica fixture the replication
// tests share: volume 1's primary on shard 0, its replica on shard 1,
// with a lease short enough that failover completes in milliseconds.
func replConfig(udp bool) ClusterConfig {
	return ClusterConfig{
		Shards:   2,
		Volumes:  []uint32{1},
		Replicas: 1,
		UDP:      udp,
		Node:     tightNode(),
		Server: Config{
			ReplicaLease:      150 * time.Millisecond,
			ReplicaAckTimeout: 50 * time.Millisecond,
		},
	}
}

// waitUntil polls cond until it holds or the deadline kills the test.
func waitUntil(t testing.TB, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// shardWithRole finds the live shard holding vol in the given role.
func shardWithRole(c *Cluster, vol uint32, role VolumeRole) *ClusterServer {
	for _, cs := range c.Servers {
		if cs.Srv == nil {
			continue
		}
		if r, ok := cs.Srv.Role(vol); ok && r == role {
			return cs
		}
	}
	return nil
}

// pageVersion decodes the version a versionedPage write stamped.
func pageVersion(page []byte) uint32 {
	return binary.BigEndian.Uint32(page) & 0xffff
}

// directClient builds an unrouted client pinned to one server and one
// volume — the probe the tests use to ask a specific replica what it
// would serve.
func directClient(p *ipc.Proc, server ipc.Pid, vol uint32) *Client {
	return &Client{p: p, server: server, vol: vol, retry: DefaultRetryPolicy, sleep: time.Sleep}
}

// waitReplicaServing polls a direct (unrouted) read against the replica
// server until it serves the expected bytes: serving implies the primary
// counted the replica in-sync on its last heartbeat, and the matching
// payload implies the record stream caught up through that write.
var probeSeq atomic.Int32

func waitReplicaServing(t testing.TB, node *ipc.Node, replica ipc.Pid, file, block uint32, want []byte) {
	t.Helper()
	p := attach(t, node, fmt.Sprintf("direct-probe-%d", probeSeq.Add(1)))
	cl := directClient(p, replica, 1)
	page := make([]byte, len(want))
	waitUntil(t, 5*time.Second, "replica to serve the replicated bytes", func() bool {
		n, err := cl.ReadBlock(file, block, page)
		return err == nil && n == len(want) && bytes.Equal(page[:n], want)
	})
}

// TestReplicatedReadFanOut is the replication read-capacity claim as
// exact counts: acked writes stream to the replicas, and a SpreadReads
// client round-robins n reads over the primary and its R in-sync
// replicas — ⌊n/(R+1)⌋ or ⌈n/(R+1)⌉ on each copy — while its writes stay
// pinned to the primary.
func TestReplicatedReadFanOut(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			cfg := replConfig(false)
			cfg.Shards = replicas + 1
			cfg.Replicas = replicas
			c := startCluster(t, cfg)
			node := clientNode(t, c)
			r := newRouter(t, node)
			w := NewVolumeClient(attach(t, node, "writer"), r, 1)

			for b := uint32(0); b < 4; b++ {
				if err := w.WriteBlock(9, b, versionedPage(b, 1)); err != nil {
					t.Fatal(err)
				}
			}
			// Volume 1's primary is shard 0, replica i shard i.
			for i, cs := range c.Servers {
				want := RoleReplica
				if i == 0 {
					want = RolePrimary
				}
				if role, ok := cs.Srv.Role(1); !ok || role != want {
					t.Fatalf("shard %d holds volume 1 as %v (hosted=%v), want %v", i, role, ok, want)
				}
			}
			for _, cs := range c.Servers[1:] {
				waitReplicaServing(t, node, cs.Srv.Pid(), 9, 3, versionedPage(3, 1))
			}
			// The router caches the read set it is first told: every
			// replica must be in it by then.
			waitUntil(t, 5*time.Second, "every replica in-sync at the primary", func() bool {
				return c.Servers[0].Srv.volumes[1].repl.insyncCount() == replicas
			})

			rd := NewVolumeClient(attach(t, node, "reader"), r, 1)
			rd.SpreadReads(true)
			before := make([]int64, len(c.Servers))
			for i, cs := range c.Servers {
				before[i] = srvCounter(cs.Srv, "rfs.page_reads")
			}
			const n = 10
			page := make([]byte, 512)
			for i := 0; i < n; i++ {
				b := uint32(i % 4)
				if _, err := rd.ReadBlock(9, b, page); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(page, versionedPage(b, 1)) {
					t.Fatalf("spread read %d returned wrong bytes", i)
				}
			}
			copies := int64(replicas + 1)
			for i, cs := range c.Servers {
				got := srvCounter(cs.Srv, "rfs.page_reads") - before[i]
				if got != n/copies && got != (n+copies-1)/copies {
					t.Errorf("shard %d served %d of %d spread reads over %d copies", i, got, n, copies)
				}
			}

			// Writes from the spreading client still pin to the primary.
			pWrites := srvCounter(c.Servers[0].Srv, "rfs.page_writes")
			for v := uint32(2); v <= 4; v++ {
				if err := rd.WriteBlock(9, 0, versionedPage(0, v)); err != nil {
					t.Fatal(err)
				}
			}
			if got := srvCounter(c.Servers[0].Srv, "rfs.page_writes") - pWrites; got != 3 {
				t.Fatalf("primary took %d of 3 writes from a SpreadReads client", got)
			}
			for i, cs := range c.Servers[1:] {
				if got := srvCounter(cs.Srv, "rfs.page_writes"); got != 0 {
					t.Fatalf("replica %d took %d direct writes", i+1, got)
				}
			}
		})
	}
}

// TestCachingSpreadReadsSeeAckedWrites: caching clients that spread their
// reads over the primary and its in-sync replica, on two client nodes, as
// the shared-cluster benchmark runs them. The reader reads one page in a
// loop, mostly from its cache, while the writer overwrites it; a read
// that starts after a write's ack must never return older bytes, whether
// its refill goes to the primary or to the replica. The primary calls
// the reader back while the replica may still be applying the write, so
// that holds only because the reader does not cache a refill the replica
// read before applying the sequence the callback named
// (TestGatedApplyFencesReplicaFills holds that window open).
func TestCachingSpreadReadsSeeAckedWrites(t *testing.T) {
	for _, udp := range []bool{false, true} {
		t.Run(fmt.Sprintf("udp=%v", udp), func(t *testing.T) {
			c := startCluster(t, replConfig(udp))
			wnode, rnode := clientNode(t, c), clientNode(t, c)
			open := func(node *ipc.Node, name string) *CachingClient {
				cc, err := NewVolumeCachingClient(attach(t, node, name), newRouter(t, node), 1, CacheClientConfig{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(cc.Close)
				cc.SpreadReads(true)
				return cc
			}
			w := open(wnode, "writer")
			if err := w.WriteBlock(9, 0, versionedPage(0, 1)); err != nil {
				t.Fatal(err)
			}
			replica := c.Servers[1].Srv
			waitReplicaServing(t, rnode, replica.Pid(), 9, 0, versionedPage(0, 1))
			// The reader's router caches the first read set it is told,
			// so the replica must be in it by then.
			waitUntil(t, 5*time.Second, "the replica in-sync at the primary", func() bool {
				return c.Servers[0].Srv.volumes[1].repl.insyncCount() == 1
			})
			rd := open(rnode, "reader")
			page := make([]byte, 512)
			if _, err := rd.ReadBlock(9, 0, page); err != nil { // registers and caches v1
				t.Fatal(err)
			}
			replicaReads := srvCounter(replica, "rfs.page_reads")

			var acked atomic.Uint32 // the last version whose write was acked
			acked.Store(1)
			var reads atomic.Int64
			var readErr error // set by the reader before it closes done
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					floor := acked.Load()
					if _, err := rd.ReadBlock(9, 0, page); err != nil {
						readErr = err
						return
					}
					if err := checkVersionedPage(0, page); err != nil {
						readErr = err
						return
					}
					if v := pageVersion(page); v < floor {
						readErr = fmt.Errorf("read returned version %d after version %d was acked", v, floor)
						return
					}
					reads.Add(1)
				}
			}()
			const writes = 40
			var writeErr error
			for v := uint32(2); v < 2+writes && writeErr == nil; v++ {
				if writeErr = w.WriteBlock(9, 0, versionedPage(0, v)); writeErr != nil {
					break
				}
				acked.Store(v)
				// Two reads that start after the ack: a refill, then a hit,
				// so the page is cached again when the next write lands.
				after := reads.Load() + 2
				waitUntil(t, 5*time.Second, "the reader to re-read the page", func() bool {
					select {
					case <-done:
						return true
					default:
						return reads.Load() >= after
					}
				})
			}
			close(stop)
			<-done
			if readErr != nil {
				t.Fatal(readErr)
			}
			if writeErr != nil {
				t.Fatal(writeErr)
			}
			if st := rd.Stats(); st.Hits < writes || st.Callbacks < writes {
				t.Fatalf("reader hits %d, callbacks %d; want ≥ %d each", st.Hits, st.Callbacks, writes)
			}
			if got := srvCounter(replica, "rfs.page_reads") - replicaReads; got == 0 {
				t.Fatal("the replica served none of the reader's refills")
			}
		})
	}
}

// applyGate is a replica's store whose WriteAt — the replica applying a
// pushed write — waits while the gate is shut.
type applyGate struct {
	Store
	mu   sync.Mutex
	cond *sync.Cond
	shut bool
}

func newApplyGate(inner Store) *applyGate {
	g := &applyGate{Store: inner}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *applyGate) set(shut bool) {
	g.mu.Lock()
	g.shut = shut
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *applyGate) WriteAt(file uint32, p []byte, off int64) error {
	g.mu.Lock()
	for g.shut {
		g.cond.Wait()
	}
	g.mu.Unlock()
	return g.Store.WriteAt(file, p, off)
}

// TestGatedApplyFencesReplicaFills: the primary calls a write's readers
// back while its in-sync replica is still applying the write. Here the
// replica's apply is held at a gate, and a caching SpreadReads reader,
// whose reads all go to that replica, is called back and reads during
// the window: it gets the old bytes, which it must not cache, since the
// replica read them before applying the sequence the callback named. A
// reader that registers during the window, too late for a callback, must
// not cache them either. Once the gate opens and the writer's ack
// arrives, every read returns the new bytes.
func TestGatedApplyFencesReplicaFills(t *testing.T) {
	for _, udp := range []bool{false, true} {
		t.Run(fmt.Sprintf("udp=%v", udp), func(t *testing.T) {
			cfg := replConfig(udp)
			// The gate, not the ack timeout, decides when the write ends.
			cfg.Server.ReplicaAckTimeout = 10 * time.Second
			gate := newApplyGate(NewMemStore())
			stores := 0
			cfg.NewStore = func(uint32) Store {
				// StartCluster builds the primary's store, then the replica's.
				if stores++; stores == 2 {
					return gate
				}
				return NewMemStore()
			}
			c := startCluster(t, cfg)
			t.Cleanup(func() { gate.set(false) })
			wnode, rnode := clientNode(t, c), clientNode(t, c)
			w := NewVolumeClient(attach(t, wnode, "writer"), newRouter(t, wnode), 1)
			if err := w.WriteBlock(9, 0, versionedPage(0, 1)); err != nil {
				t.Fatal(err)
			}
			replica := c.Servers[1].Srv
			waitReplicaServing(t, rnode, replica.Pid(), 9, 0, versionedPage(0, 1))
			waitUntil(t, 5*time.Second, "the replica in-sync at the primary", func() bool {
				return c.Servers[0].Srv.volumes[1].repl.insyncCount() == 1
			})
			router := newRouter(t, rnode)
			router.readMu.Lock()
			router.reads[1] = &readSet{pids: []ipc.Pid{replica.Pid()}, expires: time.Now().Add(time.Hour)}
			router.readMu.Unlock()
			open := func(name string) *CachingClient {
				cc, err := NewVolumeCachingClient(attach(t, rnode, name), router, 1, CacheClientConfig{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(cc.Close)
				cc.SpreadReads(true)
				return cc
			}
			rd := open("reader")
			page := make([]byte, 512)
			read := func(cc *CachingClient) uint32 {
				t.Helper()
				if _, err := cc.ReadBlock(9, 0, page); err != nil {
					t.Fatal(err)
				}
				if err := checkVersionedPage(0, page); err != nil {
					t.Fatal(err)
				}
				return pageVersion(page)
			}
			read(rd) // registers and caches version 1

			for v := uint32(2); v <= 4; v++ {
				gate.set(true)
				callbacks, drops := rd.Stats().Callbacks, rd.cache.Stats().StaleDrops
				acked := make(chan error, 1)
				go func() { acked <- w.WriteBlock(9, 0, versionedPage(0, v)) }()
				waitUntil(t, 5*time.Second, "the reader's callback", func() bool {
					return rd.Stats().Callbacks > callbacks && !rd.cache.Contains(9, 0)
				})
				const windowReads = 3
				for i := 0; i < windowReads; i++ {
					if got := read(rd); got != v-1 {
						t.Fatalf("the gated replica served version %d, want %d", got, v-1)
					}
				}
				// A reader that registers now is not called back for the
				// write, and must not cache the replica's old bytes either.
				late := open(fmt.Sprintf("late%d", v))
				lateRead := make(chan error, 1)
				go func() {
					_, err := late.ReadBlock(9, 0, make([]byte, 512))
					lateRead <- err
				}()
				select { // time for a read the registration does not hold back
				case err := <-lateRead:
					lateRead <- err
				case <-time.After(50 * time.Millisecond):
				}
				gate.set(false)
				if err := <-acked; err != nil {
					t.Fatal(err)
				}
				if err := <-lateRead; err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					if got := read(rd); got != v {
						t.Fatalf("read returned version %d after version %d was acked", got, v)
					}
					if got := read(late); got != v {
						t.Fatalf("a reader registered during the write read version %d after version %d was acked", got, v)
					}
				}
				if got := rd.cache.Stats().StaleDrops - drops; got != windowReads {
					t.Fatalf("%d fills refused, want the %d in the window", got, windowReads)
				}
			}
		})
	}
}

// TestLargeWriteTrainsReplicate: a large write is staged and logged one
// train at a time — one replication record per 64 KB train — and the
// in-sync replica, applying those records, holds the same bytes as the
// primary. The write is unaligned at both ends over an existing file, so
// its head and tail blocks merge with old bytes the primary reads back
// from the store (the cache is too small to still hold them).
func TestLargeWriteTrainsReplicate(t *testing.T) {
	cfg := replConfig(false)
	// No failover here: the defaults' retransmission budget and a long ack
	// timeout keep 64 KB trains and records from dropping the replica
	// under the race detector.
	cfg.Node = ipc.NodeConfig{}
	cfg.Server.ReplicaAckTimeout = 10 * time.Second
	cfg.Server.CacheBlocks = 64
	c := startCluster(t, cfg)
	primary := c.Servers[0].Srv
	insync := func() bool { return primary.volumes[1].repl.insyncCount() == 1 }
	waitUntil(t, 5*time.Second, "volume 1's replica in-sync", insync)
	node := clientNode(t, c)
	w := NewVolumeClient(attach(t, node, "writer"), newRouter(t, node), 1)

	const file = 41
	seq := volGauge(primary, "repl_seq")
	image := pattern(file, 3*maxTrain)
	if err := w.WriteLarge(file, 0, image); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(0); err != nil {
		t.Fatal(err)
	}
	if n := volGauge(primary, "repl_seq") - seq; n != 3 {
		t.Errorf("a %d-byte write logged %d replication records, want 3 (one per train)", len(image), n)
	}
	seq = volGauge(primary, "repl_seq")
	const off, count = 300, 2*maxTrain + 700
	patch := pattern(42, count)
	if err := w.WriteLarge(file, off, patch); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(0); err != nil {
		t.Fatal(err)
	}
	copy(image[off:], patch)

	got := make([]byte, len(image))
	if n, err := w.ReadLarge(file, 0, got); err != nil || n != len(image) || !bytes.Equal(got, image) {
		t.Fatalf("primary read back n=%d err=%v, equal=%v", n, err, bytes.Equal(got, image))
	}
	if !insync() {
		t.Fatal("replica dropped out of the in-sync set")
	}
	replica := c.Servers[1].Specs[0].Store
	if size, err := replica.Size(file); err != nil || size != int64(len(image)) {
		t.Fatalf("replica size=%d err=%v, want %d", size, err, len(image))
	}
	if _, err := replica.ReadAt(file, got, 0); err != nil || !bytes.Equal(got, image) {
		t.Fatalf("replica store differs from the primary (err=%v)", err)
	}
	if n := volGauge(primary, "repl_seq") - seq; n != 3 {
		t.Errorf("a %d-byte write logged %d replication records, want 3 (one per train)", count, n)
	}
}

// TestReplicaKillPrimaryMidWriteBurst: the primary dies in the middle
// of a write burst; the replica promotes within the lease, the routed
// writer reroutes to it, and every write acked before or during the
// crash is still readable afterwards — synchronous commit means an ack
// implies the replica had the bytes before the primary could die.
func TestReplicaKillPrimaryMidWriteBurst(t *testing.T) {
	c := startCluster(t, replConfig(false))
	node := clientNode(t, c)
	r := newRouter(t, node)
	w := NewVolumeClient(attach(t, node, "burst-writer"), r, 1)

	rv := c.Servers[1].Srv.volumes[1].rv
	const blocks = 8
	var acked [blocks]uint32
	version := uint32(1)
	write := func() error {
		b := version % blocks
		err := w.WriteBlock(9, b, versionedPage(b, version))
		if err == nil {
			acked[b] = version
			version++
		}
		return err
	}

	// Enroll first: promotion eligibility requires the replica to have
	// been in-sync at last contact, and synchronous commit only covers
	// replicas that have joined.
	waitUntil(t, 5*time.Second, "replica to enroll in-sync", func() bool { return rv.eligible.Load() })
	for i := 0; i < 40; i++ {
		if err := write(); err != nil {
			t.Fatalf("pre-kill write %d: %v", i, err)
		}
	}

	var killOnce sync.Once
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(2 * time.Millisecond)
		killOnce.Do(func() { c.Kill(0) })
	}()
	// Keep writing through the crash; count acks that land after the
	// kill has definitely finished.
	postKill := 0
	deadline := time.Now().Add(10 * time.Second)
	for postKill < 10 {
		if time.Now().After(deadline) {
			t.Fatal("writer never recovered after the primary was killed")
		}
		err := write()
		select {
		case <-done:
			if err == nil {
				postKill++
			}
		default:
		}
	}

	// The survivor promoted exactly once and now owns the volume.
	srv := c.Servers[1].Srv
	if got := srvCounter(srv, "rfs.promotions"); got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
	if role, ok := srv.Role(1); !ok || role != RolePrimary {
		t.Fatalf("survivor role = %v, %v; want promoted primary", role, ok)
	}

	// No acked write lost: each block reads back at least its last acked
	// version, untorn.
	rd := NewVolumeClient(attach(t, node, "burst-reader"), r, 1)
	page := make([]byte, 512)
	for b := uint32(0); b < blocks; b++ {
		if acked[b] == 0 {
			continue
		}
		if _, err := rd.ReadBlock(9, b, page); err != nil {
			t.Fatalf("read block %d after failover: %v", b, err)
		}
		if err := checkVersionedPage(b, page); err != nil {
			t.Fatalf("block %d torn after failover: %v", b, err)
		}
		if got := pageVersion(page); got < acked[b] {
			t.Fatalf("block %d lost acked write: version %d < acked %d", b, got, acked[b])
		}
	}
}

// TestReplicaFailoverUDP is the kill/promote/reroute cycle over real
// loopback sockets — exercising the server-to-server UDP peer wiring
// the replica's name lookups and join exchanges depend on.
func TestReplicaFailoverUDP(t *testing.T) {
	cfg := replConfig(true)
	c := startCluster(t, cfg)
	node := clientNode(t, c)
	r := newRouter(t, node)
	w := NewVolumeClient(attach(t, node, "writer"), r, 1)

	if err := w.WriteBlock(9, 0, versionedPage(0, 1)); err != nil {
		t.Fatal(err)
	}
	waitReplicaServing(t, node, c.Servers[1].Srv.Pid(), 9, 0, versionedPage(0, 1))

	c.Kill(0)
	killed := time.Now()
	deadline := killed.Add(10 * time.Second)
	page := make([]byte, 512)
	var readGap, writeGap time.Duration
	for readGap == 0 || writeGap == 0 {
		if readGap == 0 {
			if _, err := w.ReadBlock(9, 0, page); err == nil {
				readGap = time.Since(killed)
			}
		}
		if writeGap == 0 {
			if err := w.WriteBlock(9, 0, versionedPage(0, 2)); err == nil {
				writeGap = time.Since(killed)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("service never recovered after killing the primary over UDP")
		}
	}
	// The failover gap is logged, not gated: it is wall-clock.
	t.Logf("kill -> first successful read %v, write %v (replica lease %v)",
		readGap.Round(time.Millisecond), writeGap.Round(time.Millisecond), cfg.Server.ReplicaLease)
	srv := c.Servers[1].Srv
	if got := srvCounter(srv, "rfs.promotions"); got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
	rd := NewVolumeClient(attach(t, node, "reader"), r, 1)
	if _, err := rd.ReadBlock(9, 0, page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, versionedPage(0, 2)) {
		t.Fatal("promoted replica served stale bytes")
	}
}

// TestReplicaKillDuringCatchUp: with two replicas, one dies, misses a
// few hundred writes (a backlog its sender pushes it in batches when it
// rejoins — the surviving member keeps the log alive), and dies again
// while that backlog is being pushed. The primary must shrug twice —
// writes stay fast once the laggard is dropped — and the third
// incarnation still converges to the full data set.
func TestReplicaKillDuringCatchUp(t *testing.T) {
	cfg := replConfig(false)
	cfg.Shards = 3
	cfg.Replicas = 2
	// Replica 1 must stay enrolled through the backlog (its membership is
	// what keeps the log): on a loaded machine one late ack inside the
	// fixture's 50 ms would drop it, empty the log and turn the rejoin
	// below into a snapshot resync.
	cfg.Server.ReplicaAckTimeout = 500 * time.Millisecond
	// A 1ms-per-op store stretches the catch-up so the test can reliably
	// kill the replica while its backlog is being pushed.
	cfg.NewStore = func(uint32) Store {
		return &slowStore{Store: NewMemStore(), delay: time.Millisecond, readDelay: time.Millisecond}
	}
	c := startCluster(t, cfg)
	node := clientNode(t, c)
	r := newRouter(t, node)
	w := NewVolumeClient(attach(t, node, "writer"), r, 1)

	// Both replicas must be enrolled before the first write: one written
	// to an empty membership is not logged, and a log that starts after
	// sequence 1 cannot cover the restarted replica below — its rejoin
	// would be a snapshot resync, not the pushed catch-up under test.
	waitUntil(t, 10*time.Second, "both replicas to enroll", func() bool {
		return c.Servers[0].Srv.volumes[1].repl.insyncCount() == 2
	})
	if err := w.WriteBlock(9, 0, versionedPage(0, 1)); err != nil {
		t.Fatal(err)
	}
	// Replica 2 lives on shard 2; wait for it to enroll and serve.
	waitReplicaServing(t, node, c.Servers[2].Srv.Pid(), 9, 0, versionedPage(0, 1))

	// Crash replica 2 and build a backlog of a few batches. Replica 1
	// stays enrolled, so every write commits synchronously to it and the
	// log is retained for the rejoin.
	c.Kill(2)
	const backlog = 300
	for i := 1; i <= backlog; i++ {
		if err := w.WriteBlock(9, uint32(i), versionedPage(uint32(i), 1)); err != nil {
			t.Fatalf("write %d with replica 2 down: %v", i, err)
		}
	}

	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	// Kill it again once the pushed catch-up is demonstrably in progress.
	waitUntil(t, 10*time.Second, "pushed catch-up to start", func() bool {
		n := srvCounter(c.Servers[2].Srv, "rfs.repl_applied")
		return n > 0 && n < backlog
	})
	c.Kill(2)

	// The primary must not wedge on the vanished laggard: a run of writes
	// completes promptly (replica 1 acks; the laggard was never in the
	// in-sync wait).
	start := time.Now()
	for i := 0; i < 20; i++ {
		if err := w.WriteBlock(9, uint32(i), versionedPage(uint32(i), 2)); err != nil {
			t.Fatalf("write %d after replica 2 vanished: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("writes wedged behind dead replica: 20 writes took %v", elapsed)
	}

	// Third incarnation converges: once it serves reads it has caught up
	// through the whole history, including the post-crash overwrites.
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	waitReplicaServing(t, node, c.Servers[2].Srv.Pid(), 9, backlog, versionedPage(backlog, 1))
	waitReplicaServing(t, node, c.Servers[2].Srv.Pid(), 9, 5, versionedPage(5, 2))
}

// TestReplicaCatchUpUnderWrites: a restarted replica catches up from
// the log while a writer keeps writing without pause. Behind, it is not
// in-sync, so it does not throttle the writer; its sender must still
// drain a backlog the writer keeps growing — batches carry many records
// per exchange — and it must reach the in-sync set from the log alone,
// with no snapshot fallback.
func TestReplicaCatchUpUnderWrites(t *testing.T) {
	cfg := replConfig(false)
	cfg.Shards = 3
	cfg.Replicas = 2
	// Replica 1's membership keeps the log; a late ack must not drop it.
	cfg.Server.ReplicaAckTimeout = 500 * time.Millisecond
	// The restarted replica rejoins from sequence 0, so the log must
	// still reach sequence 1 however many writes land while it restarts.
	cfg.Server.ReplicaLogMax = 1 << 16
	cfg.Server.ReplicaLogMaxBytes = 64 << 20
	c := startCluster(t, cfg)
	node := clientNode(t, c)
	w := NewVolumeClient(attach(t, node, "writer"), newRouter(t, node), 1)
	primary := c.Servers[0].Srv
	insync := func() int64 { return volGauge(primary, "repl_insync") }
	waitUntil(t, 10*time.Second, "both replicas to enroll", func() bool { return insync() == 2 })

	// Replica 2 lives on shard 2.
	c.Kill(2)
	const backlog = 600
	for b := uint32(0); b < backlog; b++ {
		if err := w.WriteBlock(9, b, versionedPage(b, 1)); err != nil {
			t.Fatalf("write %d with replica 2 down: %v", b, err)
		}
	}

	var last atomic.Uint32 // the last block the writer saw acked
	last.Store(backlog - 1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := uint32(backlog); ; b++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.WriteBlock(9, b, versionedPage(b, 1)); err != nil {
				errc <- fmt.Errorf("write %d during catch-up: %w", b, err)
				return
			}
			last.Store(b)
		}
	}()
	var stopOnce sync.Once
	stopWriter := func() { stopOnce.Do(func() { close(stop); wg.Wait() }) }
	defer stopWriter()

	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "the restarted replica in-sync under writes", func() bool {
		select {
		case err := <-errc:
			t.Fatal(err)
		default:
		}
		return insync() == 2
	})
	stopWriter()
	t.Logf("in-sync after %d writes past the backlog", last.Load()+1-backlog)
	b := last.Load()
	waitReplicaServing(t, node, c.Servers[2].Srv.Pid(), 9, b, versionedPage(b, 1))
	if n := srvCounter(c.Servers[2].Srv, "rfs.repl_resyncs"); n != 0 {
		t.Fatalf("replica 2 resynced from a snapshot %d times; want a catch-up from the log alone", n)
	}
}

// TestReplicaPromotionUnderLoss: failover must complete through 40%
// packet loss — heartbeats, the lease-expiry detection, the promotion
// name registration and the client's re-resolution all ride retries.
func TestReplicaPromotionUnderLoss(t *testing.T) {
	cfg := replConfig(false)
	cfg.Faults = ipc.FaultConfig{DropProb: 0.4}
	cfg.Node = ipc.NodeConfig{
		RetransmitTimeout: 5 * time.Millisecond,
		Retries:           15,
		GetPidTimeout:     10 * time.Millisecond,
		GetPidRetries:     15,
	}
	cfg.Server.ReplicaLease = 300 * time.Millisecond
	c := startCluster(t, cfg)
	node := clientNode(t, c)
	r := newRouter(t, node)
	w := NewVolumeClient(attach(t, node, "writer"), r, 1)

	var lastAcked uint32
	for v := uint32(1); v <= 5; v++ {
		if err := w.WriteBlock(9, 0, versionedPage(0, v)); err != nil {
			t.Fatalf("write v%d under loss: %v", v, err)
		}
		lastAcked = v
	}
	rv := c.Servers[1].Srv.volumes[1].rv
	waitUntil(t, 10*time.Second, "replica to enroll in-sync under loss", func() bool {
		return rv.eligible.Load()
	})

	c.Kill(0)
	deadline := time.Now().Add(20 * time.Second)
	page := make([]byte, 512)
	for {
		if _, err := w.ReadBlock(9, 0, page); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reads never recovered through 40% loss after killing the primary")
		}
	}
	if got := pageVersion(page); got < lastAcked {
		t.Fatalf("promoted replica lost acked writes under loss: v%d < v%d", got, lastAcked)
	}
	if got := srvCounter(c.Servers[1].Srv, "rfs.promotions"); got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
	// And it takes writes.
	waitUntil(t, 10*time.Second, "writes to recover under loss", func() bool {
		return w.WriteBlock(9, 0, versionedPage(0, lastAcked+1)) == nil
	})
}

// TestReplicaFullCycle: kill the primary, let the replica promote and
// take writes, then restart the dead shard — whose Rejoin probe finds
// the promoted primary and demotes the restarted server to a replica
// (snapshot-resyncing the writes it slept through) instead of
// split-braining the volume.
func TestReplicaFullCycle(t *testing.T) {
	c := startCluster(t, replConfig(false))
	node := clientNode(t, c)
	r := newRouter(t, node)
	w := NewVolumeClient(attach(t, node, "writer"), r, 1)

	if err := w.WriteBlock(9, 0, versionedPage(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteLarge(10, 0, pattern(10, 4096)); err != nil {
		t.Fatal(err)
	}
	waitReplicaServing(t, node, c.Servers[1].Srv.Pid(), 9, 0, versionedPage(0, 1))

	c.Kill(0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := w.WriteBlock(9, 0, versionedPage(0, 2)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writes never failed over to the replica")
		}
	}
	if got := srvCounter(c.Servers[1].Srv, "rfs.promotions"); got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}

	// Restart the ex-primary: it must come back as a replica of the
	// promoted server, not a second primary.
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "restarted ex-primary to demote itself", func() bool {
		role, ok := c.Servers[0].Srv.Role(1)
		return ok && role == RoleReplica
	})
	if role, _ := c.Servers[1].Srv.Role(1); role != RolePrimary {
		t.Fatal("promoted server lost the primary role after the old one rejoined")
	}

	// The demoted rejoiner resyncs and serves the post-crash write it
	// slept through — plus the large file from before the crash.
	waitReplicaServing(t, node, c.Servers[0].Srv.Pid(), 9, 0, versionedPage(0, 2))
	p := attach(t, node, "cycle-probe")
	direct := directClient(p, c.Servers[0].Srv.Pid(), 1)
	got := make([]byte, 4096)
	if _, err := direct.ReadLarge(10, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(10, 4096)) {
		t.Fatal("rejoined replica resynced wrong bytes for file 10")
	}

	// New writes replicate to the rejoiner: read-your-writes via the
	// demoted server once the stream delivers.
	if err := w.WriteBlock(9, 0, versionedPage(0, 3)); err != nil {
		t.Fatal(err)
	}
	waitReplicaServing(t, node, c.Servers[0].Srv.Pid(), 9, 0, versionedPage(0, 3))
}

// TestReplicaFailoverCachingReadYourWrites: promotion-flavored twin of
// the restart failover test — caching clients must purge and
// re-register against the promoted replica so cross-client
// read-your-writes holds across the primary's death.
func TestReplicaFailoverCachingReadYourWrites(t *testing.T) {
	c := startCluster(t, replConfig(false))
	node := clientNode(t, c)
	r := newRouter(t, node)
	a, err := NewVolumeCachingClient(attach(t, node, "writer"), r, 1, CacheClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err := NewVolumeCachingClient(attach(t, node, "reader"), r, 1, CacheClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)

	var mu sync.Mutex
	var skew time.Duration
	b.setNow(func() time.Time { mu.Lock(); defer mu.Unlock(); return time.Now().Add(skew) })

	page := make([]byte, 512)
	read := func(who *CachingClient) []byte {
		t.Helper()
		if _, err := who.ReadBlock(9, 0, page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	if err := a.WriteBlock(9, 0, versionedPage(0, 1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(b), versionedPage(0, 1)) {
		t.Fatal("reader missed v1 before the crash")
	}
	waitReplicaServing(t, node, c.Servers[1].Srv.Pid(), 9, 0, versionedPage(0, 1))

	c.Kill(0)

	// The writer's next successful op lands on the promoted replica,
	// purging its cache and registering there.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err = a.WriteBlock(9, 0, versionedPage(0, 2)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("caching writer never failed over: %v", err)
		}
	}
	if a.Stats().Purges == 0 {
		t.Fatal("writer never purged on reroute to the promoted replica")
	}

	// The reader's registration died with the old primary; after its
	// lease runs out it re-registers — with the new primary — purges,
	// and reads the post-promotion write.
	mu.Lock()
	skew = 10 * time.Second
	mu.Unlock()
	if !bytes.Equal(read(b), versionedPage(0, 2)) {
		t.Fatal("reader served stale bytes after promotion + lease expiry")
	}
	if b.Stats().Purges == 0 {
		t.Fatal("reader never purged on reroute")
	}
	// Fully re-established: the invalidation protocol carries the next
	// write synchronously.
	if err := a.WriteBlock(9, 0, versionedPage(0, 3)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(b), versionedPage(0, 3)) {
		t.Fatal("read-your-writes broken after promotion")
	}
}

// TestBatchAssembly: a push batch is the log's records from the asked-for
// sequence on — consecutive, never none, within maxTrain encoded bytes
// unless it is one record alone (a whole-train write) — and a batch
// starting before the log's start is refused.
func TestBatchAssembly(t *testing.T) {
	rs := newReplState(&Server{cfg: Config{ReplicaLogMax: 300}.withDefaults()}, 1, 0)
	rs.replicas[1] = &replicaConn{rid: 1} // a member, so records are logged
	page := make([]byte, 512)
	for b := uint32(0); b < 300; b++ {
		rs.append(repKindWrite, 9, b*512, 0, page)
	}
	train := rs.append(repKindWrite, 10, 0, 0, make([]byte, maxTrain))
	rs.append(repKindCreate, 11, 4096, 0)

	// ReplicaLogMax trimmed the two oldest page records.
	if rs.logStart != 3 {
		t.Fatalf("log starts at %d, want 3", rs.logStart)
	}
	if _, ok := rs.batchLocked(rs.logStart - 1); ok {
		t.Fatal("a batch starting before the log's start was not refused")
	}
	batches := 0
	for from := rs.logStart; from <= rs.seq; batches++ {
		recs, ok := rs.batchLocked(from)
		if !ok || len(recs) == 0 {
			t.Fatalf("batch at %d: ok=%v with %d records", from, ok, len(recs))
		}
		total := 0
		for i, enc := range recs {
			r, n, ok := decodeRepRecord(enc)
			if !ok || n != len(enc) || r.seq != from+uint32(i) {
				t.Fatalf("batch at %d: record %d decodes ok=%v n=%d/%d seq=%d", from, i, ok, n, len(enc), r.seq)
			}
			if r.seq == train && len(recs) != 1 {
				t.Fatalf("batch at %d: the train record shares a batch of %d", from, len(recs))
			}
			total += len(enc)
		}
		if len(recs) > 1 && total > maxTrain {
			t.Fatalf("batch at %d: %d records, %d bytes over the %d-byte cap", from, len(recs), total, maxTrain)
		}
		from += uint32(len(recs))
	}
	// 298 page records at 533 encoded bytes fill 122 to a batch: three
	// batches, then the train alone and the create.
	if batches != 5 {
		t.Fatalf("%d batches, want 5", batches)
	}
}

// TestTrainBatchBufferPooled: the largest batch a sender pushes — one
// 64 KB write record alone — fits a pooled buffer class, so the replica
// applying it allocates no one-off 64 KB slab per push.
func TestTrainBatchBufferPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled buffers allocate under the race detector")
	}
	rs := newReplState(&Server{cfg: Config{}.withDefaults()}, 1, 0)
	rs.replicas[1] = &replicaConn{rid: 1}
	from := rs.append(repKindWrite, 10, 0, 0, make([]byte, maxTrain))
	recs, ok := rs.batchLocked(from)
	if !ok || len(recs) != 1 {
		t.Fatalf("train batch: ok=%v with %d records", ok, len(recs))
	}
	size := len(recs[0])
	if n := testing.AllocsPerRun(100, func() { bufpool.Get(size).Release() }); n != 0 {
		t.Fatalf("a %d-byte batch buffer costs %v allocs: not pooled", size, n)
	}
}

// TestLogEmptiesWithMembership: a record appended while no replica is
// enrolled is not logged, and the log restarts after it — a later
// joiner's batch holds the records it asks for, not ones logged before
// the membership emptied.
func TestLogEmptiesWithMembership(t *testing.T) {
	rs := newReplState(&Server{cfg: Config{}.withDefaults()}, 1, 0)
	conn := &replicaConn{rid: 1}
	rs.replicas[1] = conn
	rs.append(repKindWrite, 9, 0, 0, make([]byte, 512))
	delete(rs.replicas, 1)
	rs.append(repKindWrite, 9, 512, 0, make([]byte, 512))
	rs.replicas[1] = conn
	third := rs.append(repKindCreate, 10, 0, 0)

	recs, ok := rs.batchLocked(third)
	if !ok || len(recs) != 1 {
		t.Fatalf("batch at %d: ok=%v with %d records, want the one record", third, ok, len(recs))
	}
	if r, _, _ := decodeRepRecord(recs[0]); r.seq != third || r.kind != repKindCreate {
		t.Fatalf("batch at %d holds kind %d seq %d", third, r.kind, r.seq)
	}
	if rs.logBytes != len(recs[0]) {
		t.Fatalf("log counts %d bytes, want %d", rs.logBytes, len(recs[0]))
	}
}

// FuzzDecodeRepRecord: the replica decodes pushed batches, so the record
// decoder is a wire parser. Whatever the bytes, it must not panic, must
// consume no more than it was given, and a record it accepts must be
// exactly what encoding its fields reproduces.
func FuzzDecodeRepRecord(f *testing.F) {
	f.Add(encodeRepRecord(repKindWrite, 9, 512, 7, 0xabcdef, pattern(9, 512)))
	f.Add(encodeRepRecord(repKindCreate, 9, 4096, 8, 0))
	f.Add(encodeRepRecord(repKindWrite, 9, 0, 9, 0, pattern(9, 64))[:repRecordHeader-1])
	huge := encodeRepRecord(repKindWrite, 9, 0, 10, 0, pattern(9, 16))
	binary.BigEndian.PutUint32(huge[9:], 0xFFFFFFF0)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, src []byte) {
		r, n, ok := decodeRepRecord(src)
		if n > len(src) {
			t.Fatalf("consumed %d of %d bytes", n, len(src))
		}
		if !ok {
			return
		}
		if enc := encodeRepRecord(r.kind, r.file, r.off, r.seq, r.trace, r.data); !bytes.Equal(enc, src[:n]) {
			t.Fatalf("re-encoding gives %x, want %x", enc, src[:n])
		}
	})
}

// TestApplyBatchStopsAtTruncatedRecord: a batch whose last record is cut
// short is answered BadRequest, every earlier record still applied, and
// the reply's last applied sequence says how far the batch got.
func TestApplyBatchStopsAtTruncatedRecord(t *testing.T) {
	leakCheck(t)
	mesh := ipc.NewMemNetwork(7, ipc.FaultConfig{})
	defer mesh.Close()
	node := ipc.NewNode(1, mesh.Transport(1), tightNode())
	defer node.Close()
	store := NewMemStore()
	// A replica with no primary anywhere: nothing else pushes to it.
	srv, err := StartVolumes(node, []VolumeSpec{{ID: 1, Store: store, Role: RoleReplica, ReplicaID: 1}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	data := pattern(9, 1500) // the batch outgrows the inline prefix
	batch := encodeRepRecord(repKindCreate, 9, 0, 1, 0)
	batch = append(batch, encodeRepRecord(repKindWrite, 9, 0, 2, 0, data)...)
	cut := encodeRepRecord(repKindWrite, 9, 1500, 3, 0, pattern(10, 100))
	batch = append(batch, cut[:len(cut)-1]...)

	p := attach(t, node, "pusher")
	m := buildRequest(0, OpReplicate, 0, 0, uint32(len(batch)))
	if err := p.Send(&m, srv.volumes[1].rv.apply.Pid(), &ipc.Segment{Data: batch, Access: ipc.SegRead}); err != nil {
		t.Fatal(err)
	}
	if status, last := parseReply(&m); status != StatusBadRequest || last != 2 {
		t.Fatalf("reply status %d, last applied %d; want BadRequest after applying 2", status, last)
	}
	got := make([]byte, 2000)
	if n, _ := store.ReadAt(9, got, 0); n != len(data) || !bytes.Equal(got[:n], data) {
		t.Fatalf("store holds %d bytes of file 9, want the second record's %d", n, len(data))
	}
}
