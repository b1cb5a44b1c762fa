package rfs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vkernel/internal/ipc"
	"vkernel/internal/obs"
)

// TestTracedWriteMultiNodeTimeline: a client-stamped trace id follows a
// write through every hop it fans out to — the primary's request span,
// the replication push, the replica's apply, and the write-behind flush
// that eventually persists the block — each recorded in its own node's
// trace ring, together forming a cross-node timeline for one request.
// Timing stays disabled throughout: tracing alone must be enough to get
// spans (with real durations), while the latency histograms stay empty.
func TestTracedWriteMultiNodeTimeline(t *testing.T) {
	c := startCluster(t, replConfig(false))
	node := clientNode(t, c)
	p := attach(t, node, "traced-writer")
	router := newRouter(t, node)

	cl := NewVolumeClient(p, router, 1)
	trace := obs.NewTraceID()
	cl.SetTrace(trace)

	page := make([]byte, 512)
	for i := range page {
		page[i] = byte(i)
	}
	for blk := uint32(0); blk < 4; blk++ {
		if err := cl.WriteBlock(7, blk, page); err != nil {
			t.Fatalf("write block %d: %v", blk, err)
		}
	}

	primary := shardWithRole(c, 1, RolePrimary)
	replica := shardWithRole(c, 1, RoleReplica)
	if primary == nil || replica == nil {
		t.Fatal("cluster did not come up with a primary and a replica for volume 1")
	}

	// The request span is synchronous with the reply; replication and
	// the write-behind flush land asynchronously, so poll for them.
	has := func(cs *ClusterServer, what string) bool {
		for _, e := range cs.Srv.Metrics().Trace().EventsFor(trace) {
			if e.What == what {
				return true
			}
		}
		return false
	}
	if !has(primary, "rfs.write_block") {
		t.Fatalf("primary ring has no rfs.write_block span for trace %06x: %+v",
			trace, primary.Srv.Metrics().Trace().Events())
	}
	// Writes acked before the replica enrolled are not pushed (it catches
	// up from a snapshot), so keep writing until one is.
	waitUntil(t, 5*time.Second, "replication push span on the primary", func() bool {
		if err := cl.WriteBlock(7, 0, page); err != nil {
			t.Fatalf("write block 0: %v", err)
		}
		return has(primary, "repl.push")
	})
	waitUntil(t, 5*time.Second, "apply span on the replica", func() bool {
		return has(replica, "repl.apply")
	})
	waitUntil(t, 5*time.Second, "write-behind flush span on the primary", func() bool {
		return has(primary, "rfs.flush")
	})

	// Spans must carry real durations even though timing is off: a
	// traced request forces the clock on for itself alone.
	for _, e := range primary.Srv.Metrics().Trace().EventsFor(trace) {
		if e.What == "rfs.write_block" && e.Dur <= 0 {
			t.Fatalf("traced write span has no duration: %+v", e)
		}
	}
	if primary.Srv.Metrics().TimingEnabled() {
		t.Fatal("tracing a request must not flip global timing on")
	}
	if h := primary.Srv.Metrics().Histogram("rfs.op.write_block").Stat(); h.Count != 0 {
		t.Fatalf("latency histogram filled with timing disabled: %+v", h)
	}
}

// TestScrapeDuringFailover: stats scraping is a bystander. Concurrent
// OpQueryStats scrapes and in-process Stats() reads keep running while
// the primary is killed and the replica promotes, without blocking the
// data path, erroring on live servers, or ever returning a torn
// snapshot (histograms with impossible shapes, counters running
// backwards). The cluster fixture's leak check then proves the
// scrapers' grant buffers all went back to the pool.
func TestScrapeDuringFailover(t *testing.T) {
	cfg := replConfig(false)
	cfg.Server.SlowOp = 2 * time.Second // enables timing → histograms fill
	c := startCluster(t, cfg)
	node := clientNode(t, c)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 4)

	// One scraper per shard, each with its own proc and pinned client:
	// a dead shard's scrape may fail (it is a remote exchange like any
	// other), but a live shard's must parse and be monotonic.
	servers := make([]*Server, len(c.Servers))
	for _, cs := range c.Servers {
		cs := cs
		servers[cs.Index] = cs.Srv
		pid := cs.Srv.Pid()
		p := attach(t, node, fmt.Sprintf("scraper-%d", cs.Index))
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := directClient(p, pid, 1)
			buf := make([]byte, 64*1024)
			last := make(map[string]int64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				streamed, _, err := cl.QueryStats(buf)
				if err != nil {
					continue // shard may be dead or mid-restart
				}
				snap, err := obs.ParseSnapshot(buf[:streamed])
				if err != nil {
					errc <- fmt.Errorf("shard %d: unparseable snapshot: %v", cs.Index, err)
					return
				}
				for name, h := range snap.Hists {
					if h.Count < 0 || h.Sum < 0 || (h.Count > 0 && h.Max <= 0) {
						errc <- fmt.Errorf("shard %d: torn histogram %s: %+v", cs.Index, name, h)
						return
					}
				}
				for name, v := range snap.Counters {
					if prev, ok := last[name]; ok && v < prev {
						errc <- fmt.Errorf("shard %d: counter %s went backwards: %d -> %d", cs.Index, name, prev, v)
						return
					}
					last[name] = v
				}
			}
		}()
	}

	// In-process registry reader, the path vnode's shutdown print uses.
	// It keeps polling both servers — including the one that gets killed
	// mid-run: a closed server's registry reads frozen counters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, srv := range servers {
				srv.Metrics().Do(func(string, int64) {}, func(string, int64) {}, nil)
			}
		}
	}()

	// Data path under the scrapers: write, kill the primary once the
	// replica is promotion-eligible, keep writing through the promotion,
	// then read everything back. Writes during the gap fail and retry —
	// the loop counts post-kill acks like the burst failover test does.
	p := attach(t, node, "failover-writer")
	router := newRouter(t, node)
	cl := NewVolumeClient(p, router, 1)
	page := make([]byte, 512)
	for blk := uint32(0); blk < 8; blk++ {
		page[0] = byte(blk)
		if err := cl.WriteBlock(3, blk, page); err != nil {
			t.Fatalf("pre-kill write %d: %v", blk, err)
		}
	}

	rv := c.Servers[1].Srv.volumes[1].rv
	waitUntil(t, 5*time.Second, "replica to enroll in-sync", func() bool { return rv.eligible.Load() })
	c.Kill(0)

	acked := 0
	deadline := time.Now().Add(10 * time.Second)
	for acked < 8 {
		if time.Now().After(deadline) {
			t.Fatal("writer never recovered after the primary was killed")
		}
		page[0] = byte(8 + acked)
		if err := cl.WriteBlock(3, uint32(8+acked), page); err == nil {
			acked++
		}
	}
	if role, ok := c.Servers[1].Srv.Role(1); !ok || role != RolePrimary {
		t.Fatalf("survivor role = %v, %v; want promoted primary", role, ok)
	}
	in := make([]byte, 512)
	for blk := uint32(8); blk < 16; blk++ {
		if _, err := cl.ReadBlock(3, blk, in); err != nil {
			t.Fatalf("post-failover read %d: %v", blk, err)
		}
		if in[0] != byte(blk) {
			t.Fatalf("post-failover read %d: got tag %d", blk, in[0])
		}
	}

	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// The survivor must have answered scrapes during the storm.
	survivor := shardWithRole(c, 1, RolePrimary)
	if n := srvCounter(survivor.Srv, "rfs.stat_scrapes"); n == 0 {
		t.Fatal("no stats scrapes recorded on the surviving shard")
	}
}

// TestHotPageReadsTimed: a cache-hit page read is served through the op
// table like a miss, so with timing on N hits leave at least N
// observations in rfs.op.read_block, and a traced hit records an
// rfs.read_block span with a duration.
func TestHotPageReadsTimed(t *testing.T) {
	e := memEnv(t, ipc.FaultConfig{}, ipc.NodeConfig{}, Config{})
	c := e.client(t, "hot-reader")
	const file = 5
	if err := c.WriteBlock(file, 0, pattern(file, 512)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if _, err := c.ReadBlock(file, 0, buf); err != nil { // cached from here on
		t.Fatal(err)
	}
	e.srv.Metrics().SetTiming(true)
	hits := volGauge(e.srv, "cache_hits")
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := c.ReadBlock(file, 0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := volGauge(e.srv, "cache_hits") - hits; got < n {
		t.Fatalf("%d of %d reads hit the cache", got, n)
	}
	// A worker records a request after replying to it, so the last read's
	// observation and the traced read's span may land after the client
	// has its reply.
	waitUntil(t, 5*time.Second, "rfs.op.read_block to count every cache-hit read", func() bool {
		return e.srv.Metrics().Histogram("rfs.op.read_block").Stat().Count >= n
	})

	trace := obs.NewTraceID()
	c.SetTrace(trace)
	hits = volGauge(e.srv, "cache_hits")
	if _, err := c.ReadBlock(file, 0, buf); err != nil {
		t.Fatal(err)
	}
	if volGauge(e.srv, "cache_hits") == hits {
		t.Fatal("the traced read missed the cache")
	}
	waitUntil(t, 5*time.Second, "a timed rfs.read_block span for the traced hit", func() bool {
		for _, ev := range e.srv.Metrics().Trace().EventsFor(trace) {
			if ev.What == "rfs.read_block" && ev.Dur > 0 {
				return true
			}
		}
		return false
	})
}
