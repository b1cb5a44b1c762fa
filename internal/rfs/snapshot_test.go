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
	"vkernel/internal/obs"
)

// waitInSync waits until the primary counts n replicas of its volumes
// in-sync.
func waitInSync(t testing.TB, primary *Server, n int64) {
	t.Helper()
	waitUntil(t, 10*time.Second, fmt.Sprintf("%d replica(s) in-sync", n), func() bool {
		return volGauge(primary, "repl_insync") == n
	})
}

// dropReplicas kills the given shards and makes two writes: the first
// times out on the dead replicas' acks and drops them from the
// membership, so with no member left the second is not logged and the
// log no longer covers a restarted replica.
func dropReplicas(t testing.TB, c *Cluster, w *Client, file uint32, shards ...int) {
	t.Helper()
	for _, i := range shards {
		c.Kill(i)
	}
	for v := uint32(1); v <= 2; v++ {
		if err := w.WriteBlock(file, 0, versionedPage(0, v)); err != nil {
			t.Fatalf("write v%d with the replicas down: %v", v, err)
		}
	}
}

// TestSnapshotKeepsSyncError: a snapshot drains the primary's cache but
// leaves its sticky write-back errors to the syncs that report them, so
// a client's Sync of a file the store refused still fails after a
// replica was brought up to date in between.
func TestSnapshotKeepsSyncError(t *testing.T) {
	cfg := replConfig(false)
	failing := &failingFileStore{Store: NewMemStore(), badFile: 7}
	stores := []Store{failing, NewMemStore()}
	cfg.NewStore = func(uint32) Store { s := stores[0]; stores = stores[1:]; return s }
	c := startCluster(t, cfg)
	if c.Servers[0].Specs[0].Store != Store(failing) {
		t.Fatal("the failing store is not the primary's")
	}
	primary := c.Servers[0].Srv
	waitInSync(t, primary, 1)
	node := clientNode(t, c)
	w := NewVolumeClient(attach(t, node, "writer"), newRouter(t, node), 1)

	c.Kill(1)
	if err := w.WriteBlock(7, 0, pattern(7, 512)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(9, 0, pattern(9, 512)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "file 7's write-back to fail", func() bool {
		return volGauge(primary, "flush_errs") >= 1
	})
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	waitReplicaHolds(t, c.Servers[1].Srv, 9, 0, pattern(9, 512))
	if n := srvCounter(c.Servers[1].Srv, "rfs.repl_resyncs"); n != 1 {
		t.Fatalf("replica resynced %d times, want one snapshot", n)
	}
	if err := w.Sync(7); err == nil {
		t.Fatal("Sync(7) reported success for a write-back the store refused")
	}
}

// TestSnapshotManyFiles: a snapshot is records on the push stream, so
// nothing but the store bounds a volume's file count — 11,000 files
// written straight into the primary's store reach a replica the log
// does not cover.
func TestSnapshotManyFiles(t *testing.T) {
	cfg := replConfig(false)
	// The defaults' retransmission budget keeps 64 KB snapshot batches
	// from dropping the replica under the race detector, which would
	// start a second snapshot.
	cfg.Node = ipc.NodeConfig{}
	c := startCluster(t, cfg)
	waitInSync(t, c.Servers[0].Srv, 1)
	node := clientNode(t, c)
	w := NewVolumeClient(attach(t, node, "writer"), newRouter(t, node), 1)

	const first, files = 1000, 11000
	primaryStore := c.Servers[0].Specs[0].Store
	for f := uint32(first); f < first+files; f++ {
		if err := primaryStore.WriteAt(f, pattern(f, 16), 0); err != nil {
			t.Fatal(err)
		}
	}
	dropReplicas(t, c, w, 9, 1)
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	waitReplicaHolds(t, c.Servers[1].Srv, 9, 0, versionedPage(0, 2))
	if n := srvCounter(c.Servers[1].Srv, "rfs.repl_resyncs"); n != 1 {
		t.Fatalf("replica resynced %d times, want one snapshot", n)
	}
	replica := c.Servers[1].Specs[0].Store
	got := make([]byte, 16)
	for f := uint32(first); f < first+files; f++ {
		if n, err := replica.ReadAt(f, got, 0); err != nil || n != len(got) || !bytes.Equal(got, pattern(f, 16)) {
			t.Fatalf("replica file %d: n=%d err=%v, equal=%v", f, n, err, bytes.Equal(got, pattern(f, 16)))
		}
	}
}

// TestSnapshotUnderWrites: a replica the log does not cover is brought
// up to date by a snapshot on its push stream while a writer never
// pauses (throttled only by the commit to the other, in-sync replica).
// The primary's store reads are slowed so the snapshot streams for a
// while. The replica must reach the in-sync set and serve the last
// acked page; a file only it held ends empty; a file first written after
// the snapshot's sequence arrives through the log; and it resynced once.
// Killed mid-snapshot, a replica claims nothing: its next incarnation
// converges, and when the primary dies mid-snapshot the in-sync peer
// promotes, never the replica holding a partial snapshot.
func TestSnapshotUnderWrites(t *testing.T) {
	cfg := replConfig(false)
	cfg.Shards = 3
	cfg.Replicas = 2
	// The defaults' retransmission budget keeps 64 KB snapshot batches
	// from dropping a replica under the race detector.
	cfg.Node = ipc.NodeConfig{}
	// An in-sync replica must not be dropped for one late ack under load.
	cfg.Server.ReplicaAckTimeout = 500 * time.Millisecond
	// Every record past a snapshot's sequence stays logged however long
	// the snapshot and the catch-up behind it take.
	cfg.Server.ReplicaLogMax = 1 << 16
	cfg.Server.ReplicaLogMaxBytes = 64 << 20
	// 400 files, each read at 1 ms, stretch every snapshot past 400 ms.
	const first, files = 1000, 400
	mem := NewMemStore()
	for f := uint32(first); f < first+files; f++ {
		if err := mem.WriteAt(f, pattern(f, 1024), 0); err != nil {
			t.Fatal(err)
		}
	}
	// StartCluster builds the primary's store (shard 0), then replica 1's
	// (shard 1) and replica 2's (shard 2).
	stores := []Store{&slowStore{Store: mem, readDelay: time.Millisecond}, NewMemStore(), NewMemStore()}
	cfg.NewStore = func(uint32) Store { s := stores[0]; stores = stores[1:]; return s }
	c := startCluster(t, cfg)
	primary := c.Servers[0].Srv
	waitInSync(t, primary, 2)
	node := clientNode(t, c)
	r := newRouter(t, node)
	w := NewVolumeClient(attach(t, node, "writer"), r, 1)
	late := NewVolumeClient(attach(t, node, "late-writer"), r, 1)
	replicaStore := c.Servers[2].Specs[0].Store

	// With both replicas down the log empties and restarts past sequence
	// 0, so neither restart is covered. Replica 1 comes back first, by a
	// snapshot with no writer running, to throttle the writer below.
	dropReplicas(t, c, w, 8, 1, 2)
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	waitInSync(t, primary, 1)
	// A file only replica 2 holds: its snapshot must leave it empty.
	if err := replicaStore.WriteAt(77, pattern(77, 1000), 0); err != nil {
		t.Fatal(err)
	}

	// The writer cycles over 512 blocks of file 9, bumping the version
	// each pass; last is the last acked write as pass*512 + block.
	const blocks = 512
	var last atomic.Int64
	last.Store(-1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b, ver := uint32(i%blocks), uint32(i/blocks)+1
			if err := w.WriteBlock(9, b, versionedPage(b, ver)); err != nil {
				errc <- fmt.Errorf("write %d during the snapshot: %w", i, err)
				return
			}
			last.Store(i)
		}
	}()
	var stopOnce sync.Once
	stopWriter := func() { stopOnce.Do(func() { close(stop); wg.Wait() }) }
	defer stopWriter()
	checkWriter := func() {
		select {
		case err := <-errc:
			t.Fatal(err)
		default:
		}
	}

	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	replica := c.Servers[2].Srv
	// Once the begin record has applied, the snapshot's sequence is fixed:
	// a file first written now is only in the log.
	waitUntil(t, 10*time.Second, "the snapshot to begin", func() bool {
		checkWriter()
		return srvCounter(replica, "rfs.repl_resyncs") == 1
	})
	if err := late.WriteBlock(50, 0, pattern(50, 512)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "replica 2 in-sync under writes", func() bool {
		checkWriter()
		return volGauge(primary, "repl_insync") == 2
	})
	stopWriter()
	checkWriter()
	i := last.Load()
	t.Logf("in-sync after %d writes", i+1)
	b, ver := uint32(i%blocks), uint32(i/blocks)+1
	waitReplicaHolds(t, replica, 9, b, versionedPage(b, ver))
	waitReplicaHolds(t, replica, 50, 0, pattern(50, 512))
	if size, err := replicaStore.Size(77); err != nil || size != 0 {
		t.Fatalf("replica-only file 77: size=%d err=%v, want empty", size, err)
	}
	if n := srvCounter(replica, "rfs.repl_resyncs"); n != 1 {
		t.Fatalf("replica 2 resynced %d times, want one snapshot", n)
	}

	// restartMidSnapshot restarts replica 2 (the log no longer reaches
	// sequence 0, so it is pushed a snapshot) and returns once its begin
	// record has applied, checking that it claims nothing yet.
	restartMidSnapshot := func() *replicaVol {
		t.Helper()
		if err := c.Restart(2); err != nil {
			t.Fatal(err)
		}
		srv := c.Servers[2].Srv
		rv := srv.volumes[1].rv
		waitUntil(t, 10*time.Second, "the snapshot to begin", func() bool {
			return srvCounter(srv, "rfs.repl_resyncs") == 1
		})
		if rv.lastApplied.Load() != 0 || rv.eligible.Load() {
			t.Fatalf("mid-snapshot replica claims lastApplied=%d eligible=%v",
				rv.lastApplied.Load(), rv.eligible.Load())
		}
		return rv
	}

	// Kill replica 2 mid-snapshot; its next incarnation converges.
	c.Kill(2)
	rv := restartMidSnapshot()
	c.Kill(2)
	if n := rv.lastApplied.Load(); n != 0 {
		t.Fatalf("the killed replica had finished its snapshot (lastApplied %d)", n)
	}
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	waitInSync(t, primary, 2)
	waitReplicaHolds(t, c.Servers[2].Srv, 9, b, versionedPage(b, ver))

	// Kill the primary while replica 2 is mid-snapshot: replica 1, in
	// sync, promotes; replica 2 never does, and converges from the new
	// primary.
	c.Kill(2)
	rv = restartMidSnapshot()
	c.Kill(0)
	waitUntil(t, 10*time.Second, "replica 1 to promote", func() bool {
		role, _ := c.Servers[1].Srv.Role(1)
		return role == RolePrimary
	})
	waitReplicaHolds(t, c.Servers[2].Srv, 9, b, versionedPage(b, ver))
	if n := srvCounter(c.Servers[2].Srv, "rfs.promotions"); n != 0 || rv.promoted.Load() {
		t.Fatalf("the replica that held a partial snapshot promoted (%d promotions)", n)
	}
}

// FuzzApplyBatch: a replica applies whatever bytes a push carries, so
// applyBatch is a wire parser with side effects. Whatever the batch, it
// must not panic or leak a pooled buffer, and lastApplied may move only
// by the sequencing rules: outside a snapshot to the next sequence, to
// 0 on a begin record, to the snapshot's sequence on its end record,
// and nowhere else. Each record is applied as its own batch so every
// step is checked.
func FuzzApplyBatch(f *testing.F) {
	page := pattern(9, 512)
	f.Add(encodeRepRecord(repKindWrite, 9, 0, 1, 0, page))
	f.Add(encodeRepRecord(repKindCreate, 9, 4096, 1, 0))
	snap := encodeRepRecord(repKindSnapBegin, 0, 0, 5, 0)
	snap = append(snap, encodeRepRecord(repKindCreate, 9, 1024, 5, 0)...)
	snap = append(snap, encodeRepRecord(repKindWrite, 9, 0, 5, 0, page)...)
	snap = append(snap, encodeRepRecord(repKindSnapEnd, 0, 0, 5, 0)...)
	f.Add(snap)
	f.Add(encodeRepRecord(repKindWrite, 9, 0, 1, 0, page)[:100])
	f.Add(encodeRepRecord(repKindSnapEnd, 0, 0, 7, 0))

	// A replica volume with no node: nothing but the fuzzer applies to
	// it. capStore keeps a fuzzed offset or size from growing the
	// MemStore to 4 GiB.
	s := &Server{cfg: Config{}.withDefaults(), metrics: obs.New()}
	s.stats = newServerCounters(s.metrics)
	v := &volume{id: 1, store: &capStore{Store: NewMemStore(), limit: 1 << 20}}
	v.cache = newBlockCache(s.cfg.CacheBlocks, s.cfg.BlockSize, s.cfg.DirtyBudget, s.cfg.Flushers,
		func(file uint32, off int64, p []byte) error { return v.store.WriteAt(file, p, off) })
	defer v.cache.close()
	rv := &replicaVol{s: s, v: v, rid: 1}

	f.Fuzz(func(t *testing.T, batch []byte) {
		outstanding := bufpool.Outstanding()
		for len(batch) > 0 {
			rec, n, ok := decodeRepRecord(batch)
			if !ok {
				n = len(batch)
			}
			last, snapshotting := rv.lastApplied.Load(), rv.snapshotting
			status := rv.applyBatch(batch[:n])
			want := last
			if ok && status == StatusOK {
				switch {
				case rec.kind == repKindSnapBegin:
					want = 0
				case rec.kind == repKindSnapEnd:
					want = rec.seq
				case !snapshotting && rec.seq == last+1:
					want = rec.seq
				}
			}
			if got := rv.lastApplied.Load(); got != want {
				t.Fatalf("record kind %d seq %d (status %d) moved lastApplied %d -> %d, want %d",
					rec.kind, rec.seq, status, last, got, want)
			}
			batch = batch[n:]
		}
		if got := bufpool.Outstanding(); got != outstanding {
			t.Fatalf("bufpool outstanding %d -> %d", outstanding, got)
		}
	})
}
