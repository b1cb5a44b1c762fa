package rfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"vkernel/internal/bufpool"
	"vkernel/internal/ipc"
)

// startCluster boots a cluster fixture with leak checking and teardown.
func startCluster(t testing.TB, cfg ClusterConfig) *Cluster {
	t.Helper()
	leakCheck(t)
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// clientNode adds a client node to the cluster.
func clientNode(t testing.TB, c *Cluster) *ipc.Node {
	t.Helper()
	node, err := c.ClientNode()
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// attach binds a fresh process on node.
func attach(t testing.TB, node *ipc.Node, name string) *ipc.Proc {
	t.Helper()
	p, err := node.Attach(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Detach(p) })
	return p
}

// router builds a Router on node.
func newRouter(t testing.TB, node *ipc.Node) *Router {
	t.Helper()
	r, err := NewRouter(node)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// tightNode is a node config with short timeouts, so failover tests
// observe bounded errors in milliseconds instead of seconds.
func tightNode() ipc.NodeConfig {
	return ipc.NodeConfig{
		RetransmitTimeout: 5 * time.Millisecond,
		Retries:           3,
		GetPidTimeout:     10 * time.Millisecond,
		GetPidRetries:     3,
	}
}

// TestShardedDeviceWorkDividesByK is the sharding capacity claim as exact
// counts: the same user traffic — n cold page reads, n page writes and a
// sync, spread evenly over four volumes — costs the same device
// operations in total however many shards host the volumes, and each of
// K shards does exactly 1/K of them. Written blocks are never adjacent,
// so no flush run coalesces two of them and a page write is one store
// write.
func TestShardedDeviceWorkDividesByK(t *testing.T) {
	const n, file = 64, 9
	vols := []uint32{1, 2, 3, 4}
	perVol := n / len(vols)
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			c := startCluster(t, ClusterConfig{
				Shards:  k,
				Volumes: vols,
				NewStore: func(vol uint32) Store {
					mem := NewMemStore()
					seed(t, mem, file, pattern(vol, 2*perVol*512)) // behind the server: cold
					return &countStore{Store: mem}
				},
			})
			node := clientNode(t, c)
			r := newRouter(t, node)
			page := make([]byte, 512)
			for _, vol := range vols {
				cl := NewVolumeClient(attach(t, node, fmt.Sprintf("app%d", vol)), r, vol)
				image := pattern(vol, 2*perVol*512)
				for i := 0; i < perVol; i++ {
					b := uint32(2 * i)
					if _, err := cl.ReadBlock(file, b, page); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(page, image[b*512:(b+1)*512]) {
						t.Fatalf("volume %d block %d: wrong bytes", vol, b)
					}
					if err := cl.WriteBlock(file, b+1, versionedPage(b+1, 1)); err != nil {
						t.Fatal(err)
					}
				}
				if err := cl.Sync(0); err != nil {
					t.Fatal(err)
				}
			}
			for _, cs := range c.Servers {
				var reads, writes int64
				for _, spec := range cs.Specs {
					st := spec.Store.(*countStore)
					reads += st.reads.Load()
					writes += st.writes.Load()
				}
				if reads != n/int64(k) || writes != n/int64(k) {
					t.Errorf("shard %d of %d: %d store reads, %d store writes, want %d of each",
						cs.Index, k, reads, writes, n/k)
				}
			}
		})
	}
}

// TestRegistryReapOnRegister: an idle file's lease-expired registration
// must be reaped by any later registration traffic — not only by a write
// to that same file. (Regression: reaping used to happen solely on the
// write path, so a watcher on a never-written-again file pinned registry
// memory forever.)
func TestRegistryReapOnRegister(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{CacheLease: time.Second})
	r := e.srv.registry

	var mu sync.Mutex
	now := time.Now()
	r.setNow(func() time.Time { mu.Lock(); defer mu.Unlock(); return now })
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	// A watcher on file 1 that will never be touched again.
	r.register(DefaultVolume, 1, ipc.Pid(0x100), ipc.Pid(0x101))
	if got := r.watcherCount(); got != 1 {
		t.Fatalf("watchers after first register: %d", got)
	}
	// Within the lease, registration on another file must not reap it.
	advance(500 * time.Millisecond)
	r.register(DefaultVolume, 2, ipc.Pid(0x200), ipc.Pid(0x201))
	if got := r.watcherCount(); got != 2 {
		t.Fatalf("watchers before expiry: %d, want 2", got)
	}
	// Both leases run out with no writes anywhere. The next registration —
	// a renewal on file 2 — must sweep the expired watchers out.
	advance(1600 * time.Millisecond)
	r.register(DefaultVolume, 2, ipc.Pid(0x200), ipc.Pid(0x201))
	if got := r.watcherCount(); got != 1 {
		t.Fatalf("watchers after reap: %d, want 1 (the renewal)", got)
	}
	if got := r.leaseExpiries.Load(); got != 2 {
		t.Fatalf("lease expiries: %d, want 2", got)
	}
	// The sweep removes watchers, never the version counters.
	r.mu.Lock()
	_, ok := r.files[volFile{vol: DefaultVolume, file: 1}]
	r.mu.Unlock()
	if !ok {
		t.Fatal("reap dropped file 1's version state")
	}
}

// TestDiscoverAllUnderLoss: cluster enumeration must find every shard
// through 40% packet loss — the repeated broadcast rounds inside the
// window re-solicit servers whose replies were dropped.
func TestDiscoverAllUnderLoss(t *testing.T) {
	c := startCluster(t, ClusterConfig{
		Shards: 3,
		Faults: ipc.FaultConfig{DropProb: 0.4},
		Node:   ipc.NodeConfig{GetPidTimeout: 5 * time.Millisecond, GetPidRetries: 100},
	})
	p := attach(t, clientNode(t, c), "seeker")
	pids, err := DiscoverAll(p, 750*time.Millisecond)
	if err != nil {
		t.Fatalf("DiscoverAll through 40%% loss: %v", err)
	}
	want := make(map[ipc.Pid]bool)
	for _, cs := range c.Servers {
		want[cs.Srv.Pid()] = true
	}
	if len(pids) != len(want) {
		t.Fatalf("found %d servers %v, want %d", len(pids), pids, len(want))
	}
	for _, pid := range pids {
		if !want[pid] {
			t.Fatalf("unknown server %v in %v", pid, pids)
		}
	}
}

// TestDiscoverAllBoundedFailure: with nobody answering, enumeration must
// return ErrNoServer when the window closes instead of spinning.
func TestDiscoverAllBoundedFailure(t *testing.T) {
	leakCheck(t)
	mesh := ipc.NewMemNetwork(7, ipc.FaultConfig{})
	node := ipc.NewNode(2, mesh.Transport(2), ipc.NodeConfig{GetPidTimeout: 2 * time.Millisecond})
	t.Cleanup(func() {
		_ = node.Close()
		mesh.Close()
	})
	p := attach(t, node, "seeker")
	start := time.Now()
	if _, err := DiscoverAll(p, 50*time.Millisecond); err != ErrNoServer {
		t.Fatalf("DiscoverAll with no servers: err=%v, want ErrNoServer", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("DiscoverAll failure not bounded: took %v", elapsed)
	}
}

// TestClusterMapAndRouterRefresh: the cluster map must report each
// shard's exact volume set, and a fresh Router must resolve every volume
// to the shard the map names.
func TestClusterMapAndRouterRefresh(t *testing.T) {
	c := startCluster(t, ClusterConfig{
		Shards:  2,
		Volumes: []uint32{1, 2, 3, 4},
		Node:    ipc.NodeConfig{GetPidTimeout: 20 * time.Millisecond},
	})
	node := clientNode(t, c)
	p := attach(t, node, "mapper")

	cm, err := ClusterMap(p, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	wantVols := map[int][]uint32{0: {1, 3}, 1: {2, 4}} // round-robin assignment
	if len(cm) != len(c.Servers) {
		t.Fatalf("cluster map has %d servers, want %d: %v", len(cm), len(c.Servers), cm)
	}
	for i, cs := range c.Servers {
		got, ok := cm[cs.Srv.Pid()]
		if !ok {
			t.Fatalf("shard %d missing from cluster map %v", i, cm)
		}
		if fmt.Sprint(got) != fmt.Sprint(wantVols[i]) {
			t.Fatalf("shard %d volumes = %v, want %v", i, got, wantVols[i])
		}
	}

	r := newRouter(t, node)
	for i, cs := range c.Servers {
		for _, vol := range wantVols[i] {
			pid, err := r.Resolve(vol)
			if err != nil {
				t.Fatal(err)
			}
			if pid != cs.Srv.Pid() {
				t.Fatalf("volume %d routed to %v, want shard %d (%v)", vol, pid, i, cs.Srv.Pid())
			}
		}
	}
	// A volume nobody hosts resolves to ErrNoVolume, not a hang.
	if _, err := r.Resolve(99); !errors.Is(err, ErrNoVolume) {
		t.Fatalf("Resolve(99) err = %v, want ErrNoVolume", err)
	}
}

// TestVolumeIsolation: the same file id in two volumes is two files with
// independent bytes and independent invalidation domains — a write in
// one volume never disturbs the other volume's client caches.
func TestVolumeIsolation(t *testing.T) {
	c := startCluster(t, ClusterConfig{Shards: 2}) // volumes 1 and 2
	node := clientNode(t, c)
	r := newRouter(t, node)

	c1 := NewVolumeClient(attach(t, node, "app1"), r, 1)
	c2 := NewVolumeClient(attach(t, node, "app2"), r, 2)

	d1, d2 := pattern(101, 2048), pattern(202, 2048)
	if err := c1.WriteLarge(7, 0, d1); err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteLarge(7, 0, d2); err != nil {
		t.Fatal(err)
	}
	// Each volume landed on its own shard.
	if c1.Server() == c2.Server() {
		t.Fatalf("volumes 1 and 2 both routed to %v", c1.Server())
	}
	got := make([]byte, 2048)
	if _, err := c1.ReadLarge(7, 0, got); err != nil || !bytes.Equal(got, d1) {
		t.Fatalf("volume 1 file 7 corrupted (err=%v)", err)
	}
	if _, err := c2.ReadLarge(7, 0, got); err != nil || !bytes.Equal(got, d2) {
		t.Fatalf("volume 2 file 7 corrupted (err=%v)", err)
	}

	// Warm a caching client per volume on file 7 block 0.
	a1, err := NewVolumeCachingClient(attach(t, node, "cache1"), r, 1, CacheClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a1.Close)
	a2, err := NewVolumeCachingClient(attach(t, node, "cache2"), r, 2, CacheClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a2.Close)
	page := make([]byte, 512)
	if _, err := a1.ReadBlock(7, 0, page); err != nil {
		t.Fatal(err)
	}
	if _, err := a2.ReadBlock(7, 0, page); err != nil {
		t.Fatal(err)
	}

	// A write in volume 1 must invalidate a1 (read-your-writes across
	// clients within the volume) and must not touch a2's cache at all.
	fresh := pattern(303, 512)
	if err := c1.WriteBlock(7, 0, fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := a1.ReadBlock(7, 0, page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, fresh) {
		t.Fatal("volume 1 caching client served stale bytes after the write's ack")
	}
	if got := a2.cache.Stats().Invalidations; got != 0 {
		t.Fatalf("volume 1 write invalidated %d blocks in volume 2's client cache", got)
	}
	if _, err := a2.ReadBlock(7, 0, page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, d2[:512]) {
		t.Fatal("volume 2 bytes disturbed by volume 1 write")
	}
}

// failoverScenario drives the kill/recover sequence shared by the mesh
// and UDP failover tests: with one shard down, its volume fails fast and
// retryably while the other volume keeps serving; after restart the
// routed client re-resolves and the volume's data is intact.
func failoverScenario(t *testing.T, c *Cluster) {
	t.Helper()
	node := clientNode(t, c)
	r := newRouter(t, node)
	c1 := NewVolumeClient(attach(t, node, "app1"), r, 1)
	c2 := NewVolumeClient(attach(t, node, "app2"), r, 2)

	p1, p2 := pattern(1, 512), pattern(2, 512)
	if err := c1.WriteBlock(3, 0, p1); err != nil {
		t.Fatal(err)
	}
	if err := c2.WriteBlock(3, 0, p2); err != nil {
		t.Fatal(err)
	}
	// Push volume 1's dirty blocks to its store so they survive the kill.
	if err := c1.Sync(0); err != nil {
		t.Fatal(err)
	}

	c.Kill(0) // shard 0 hosts volume 1

	// Volume 2 is unaffected.
	page := make([]byte, 512)
	if _, err := c2.ReadBlock(3, 0, page); err != nil {
		t.Fatalf("surviving volume failed during the outage: %v", err)
	}
	if !bytes.Equal(page, p2) {
		t.Fatal("surviving volume corrupted during the outage")
	}

	// Volume 1 fails within a bounded budget, with a retryable error:
	// the route is dropped, re-resolution finds no owner, ErrNoVolume.
	start := time.Now()
	_, err := c1.ReadBlock(3, 0, page)
	if err == nil {
		t.Fatal("read from the killed shard's volume succeeded")
	}
	if !errors.Is(err, ErrNoVolume) && !errors.Is(err, ipc.ErrTimeout) {
		t.Fatalf("outage error = %v, want ErrNoVolume or ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("outage error not bounded: took %v", elapsed)
	}

	// Recovery: the revived server re-advertises volume 1 and the same
	// client re-routes to it. The data written before the crash is there.
	restart := func() error { return c.Restart(0) }
	if err := restart(); err != nil {
		// A UDP rebind can transiently lose the race with the old socket.
		time.Sleep(50 * time.Millisecond)
		if err := restart(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err = c1.ReadBlock(3, 0, page); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("volume 1 never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !bytes.Equal(page, p1) {
		t.Fatal("volume 1 data lost across the crash")
	}
	if c1.Server() != c.Servers[0].Srv.Pid() {
		t.Fatalf("client routed to %v, want the revived server %v", c1.Server(), c.Servers[0].Srv.Pid())
	}
	// And the recovered volume takes new writes.
	if err := c1.WriteBlock(3, 1, pattern(9, 512)); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

func TestRouterFailoverMem(t *testing.T) {
	failoverScenario(t, startCluster(t, ClusterConfig{Shards: 2, Node: tightNode()}))
}

func TestRouterFailoverUDP(t *testing.T) {
	failoverScenario(t, startCluster(t, ClusterConfig{Shards: 2, UDP: true, Node: tightNode()}))
}

// TestClusterKillRestartLeakUDP: killing a shard under UDP must release
// every pooled frame the dead server, its node and its transport held —
// while the rest of the cluster (including a replica promoting itself
// and clients churning retries against the dead address) keeps running.
// The mid-test drain check catches leaks Kill would otherwise park
// until Close; the startCluster leak check covers final teardown.
func TestClusterKillRestartLeakUDP(t *testing.T) {
	c := startCluster(t, ClusterConfig{
		Shards:   2,
		UDP:      true,
		Replicas: 1,
		Node:     tightNode(),
		Server: Config{
			ReplicaLease:      150 * time.Millisecond,
			ReplicaAckTimeout: 50 * time.Millisecond,
		},
	})
	node := clientNode(t, c)
	r := newRouter(t, node)
	c1 := NewVolumeClient(attach(t, node, "app1"), r, 1)
	c2 := NewVolumeClient(attach(t, node, "app2"), r, 2)
	for b := uint32(0); b < 8; b++ {
		if err := c1.WriteBlock(3, b, pattern(b, 512)); err != nil {
			t.Fatal(err)
		}
		if err := c2.WriteBlock(3, b, pattern(b+8, 512)); err != nil {
			t.Fatal(err)
		}
	}
	// Volume 1's replica (shard 1) must be enrolled in-sync before the
	// kills, so the later failover pass has something eligible to promote.
	waitReplicaServing(t, node, c.Servers[1].Srv.Pid(), 3, 7, pattern(7, 512))

	// Kill every shard. With only idle clients left alive, every pooled
	// frame the dead servers held — block caches, replication logs'
	// senders, transport read loops, in-flight requests — must come
	// back to the pool. This is the per-kill leak check; accumulating
	// frames here would leak once per crash/recovery cycle.
	c.Kill(0)
	c.Kill(1)
	drainDeadline := time.Now().Add(5 * time.Second)
	for bufpool.Outstanding() != 0 {
		if time.Now().After(drainDeadline) {
			t.Fatalf("bufpool leak after kill: %d frames outstanding", bufpool.Outstanding())
		}
		time.Sleep(time.Millisecond)
	}

	// Both shards come back on their old addresses with their old
	// stores; the Rejoin probes find no promoted usurper (everyone was
	// down) so the primaries stay primaries, and the data survived.
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 512)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c1.WriteBlock(3, 0, pattern(42, 512)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("volume 1 writes never recovered after restart")
		}
	}
	if _, err := c2.ReadBlock(3, 1, page); err != nil {
		t.Fatalf("volume 2 after restart: %v", err)
	}
	if !bytes.Equal(page, pattern(9, 512)) {
		t.Fatal("volume 2 corrupted across the kill/restart cycle")
	}

	// Second cycle, this time a failover: kill volume 1's primary under
	// an established replica and let the replica promote; the teardown
	// leak check (startCluster) covers this path's frames.
	waitReplicaServing(t, node, c.Servers[1].Srv.Pid(), 3, 0, pattern(42, 512))
	c.Kill(0)
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, err := c1.ReadBlock(3, 0, page); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("volume 1 never failed over to its replica")
		}
	}
	if !bytes.Equal(page, pattern(42, 512)) {
		t.Fatal("promoted replica served wrong bytes")
	}
}

// writerCrashFanOutScenario: a caching client crashes while its write's
// invalidation fan-out is in flight. The registry must not wedge its
// fan-out on the dead client's watcher registration — later
// writes complete promptly, revoking the unreachable registration —
// and a surviving client that misses callbacks converges once its
// lease runs out (fake clocks on both the server registry and the
// surviving client).
func writerCrashFanOutScenario(t *testing.T, udp bool) {
	t.Helper()
	c := startCluster(t, ClusterConfig{
		Shards: 1,
		UDP:    udp,
		Node:   tightNode(),
		Server: Config{CacheLease: time.Second},
	})
	srv := c.Servers[0].Srv

	// Shared fake clock: the server registry's lease sweeps and the
	// surviving reader's renewals both follow it.
	var mu sync.Mutex
	var skew time.Duration
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return time.Now().Add(skew) }
	srv.registry.setNow(clock)

	doomedNode := clientNode(t, c)
	liveNode := clientNode(t, c)
	liveRouter := newRouter(t, liveNode)
	doomedRouter := newRouter(t, doomedNode)

	w, err := NewVolumeCachingClient(attach(t, doomedNode, "doomed-writer"), doomedRouter, 1, CacheClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The crash is the node dying, not an orderly shutdown — but the
	// client object itself still owns pooled cache buffers, so release
	// them at test end (the exchanges inside fail fast on the dead node).
	t.Cleanup(w.Close)
	reader, err := NewVolumeCachingClient(attach(t, liveNode, "survivor"), liveRouter, 1, CacheClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reader.Close)
	reader.setNow(clock)
	p := NewVolumeClient(attach(t, liveNode, "plain-writer"), liveRouter, 1)

	page := make([]byte, 512)
	if err := p.WriteBlock(9, 0, versionedPage(0, 1)); err != nil {
		t.Fatal(err)
	}
	// Both caching clients read v1 and register as watchers.
	if _, err := w.ReadBlock(9, 0, page); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.ReadBlock(9, 0, page); err != nil {
		t.Fatal(err)
	}
	if got := srv.registry.watcherCount(); got != 2 {
		t.Fatalf("watchers before the crash: %d, want 2", got)
	}

	// The doomed writer writes v2 and its node dies while the write —
	// and the server's invalidation fan-out it triggers — is in flight.
	var crashWG sync.WaitGroup
	crashWG.Add(1)
	go func() {
		defer crashWG.Done()
		time.Sleep(time.Millisecond)
		_ = doomedNode.Close()
	}()
	_ = w.WriteBlock(9, 0, versionedPage(0, 2)) // may fail: the node is dying under it
	crashWG.Wait()

	// The next write's fan-out hits the dead writer's registration. It
	// must complete promptly — the fan-out bounds the dead callback and
	// revokes the registration — and the survivor, whose callback
	// arrived, converges immediately.
	start := time.Now()
	if err := p.WriteBlock(9, 0, versionedPage(0, 3)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("write wedged behind the crashed writer's watcher: %v", elapsed)
	}
	if _, err := reader.ReadBlock(9, 0, page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, versionedPage(0, 3)) {
		t.Fatal("survivor served stale bytes after the writer crashed")
	}
	if got := srvCounter(srv, "rfs.cache_callback_errs"); got == 0 {
		t.Fatal("fan-out to the dead writer reported no callback error")
	}
	// The fan-out is not wedged: a burst of further writes stays prompt.
	start = time.Now()
	for v := uint32(4); v < 9; v++ {
		if err := p.WriteBlock(9, 0, versionedPage(0, v)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("invalidation fan-out wedged: 5 writes took %v", elapsed)
	}

	// Lease-expiry convergence: the survivor goes quiet past its lease,
	// the registry sweeps its registration, and a write it never hears
	// about lands. Its next read must renew, purge, and see fresh bytes
	// instead of trusting its stale cache.
	mu.Lock()
	skew = 10 * time.Second
	mu.Unlock()
	if err := p.WriteBlock(9, 0, versionedPage(0, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.ReadBlock(9, 0, page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, versionedPage(0, 9)) {
		t.Fatal("survivor failed to converge via lease expiry")
	}
	if got := srvCounter(srv, "rfs.cache_lease_expiries"); got == 0 {
		t.Fatal("registry never swept an expired registration")
	}
}

func TestWriterCrashFanOutMem(t *testing.T) { writerCrashFanOutScenario(t, false) }
func TestWriterCrashFanOutUDP(t *testing.T) { writerCrashFanOutScenario(t, true) }

// TestRoutedCachingFailoverReadYourWrites: within a volume, cross-client
// read-your-writes must hold through a server crash and recovery. Before
// the crash the invalidation callbacks carry it; after failover the
// writer's client purges wholesale on reroute, and the reader — whose
// registration died with the old server — re-registers once its lease
// runs out, re-routes, purges, and refills from the new server.
func TestRoutedCachingFailoverReadYourWrites(t *testing.T) {
	c := startCluster(t, ClusterConfig{Shards: 2, Node: tightNode()})
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

	// The reader's lease clock is fake so the test ages it without
	// sleeping through a real lease.
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

	// Pre-crash: every write's ack happens after the reader's cached copy
	// is invalidated, so the next read sees the write.
	if err := a.WriteBlock(9, 0, versionedPage(0, 1)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(b), versionedPage(0, 1)) {
		t.Fatal("reader missed write v1")
	}
	if err := a.WriteBlock(9, 0, versionedPage(0, 2)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(b), versionedPage(0, 2)) {
		t.Fatal("reader served stale v1 after v2's ack")
	}

	// Crash and revive volume 1's shard. The revived server has the
	// volume's store but an empty registry with reset version counters.
	if err := a.Sync(0); err != nil {
		t.Fatal(err)
	}
	c.Kill(0)
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}

	// The writer's next op re-routes (purging its cache and consistency
	// state), registers with the new server and writes v3.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err = a.WriteBlock(9, 0, versionedPage(0, 3)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if a.Stats().Purges == 0 {
		t.Fatal("writer never purged on reroute")
	}

	// The reader's registration died with the old server, so its
	// staleness is bounded by the lease: once the lease runs out it must
	// re-register — with the new server — purge, and read v3.
	mu.Lock()
	skew = 10 * time.Second
	mu.Unlock()
	if !bytes.Equal(read(b), versionedPage(0, 3)) {
		t.Fatal("reader served stale bytes after failover + lease expiry")
	}
	if b.Stats().Purges == 0 {
		t.Fatal("reader never purged on reroute")
	}
	// From here the protocol is fully re-established on the new server.
	if err := a.WriteBlock(9, 0, versionedPage(0, 4)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(b), versionedPage(0, 4)) {
		t.Fatal("read-your-writes broken after recovery")
	}
}
