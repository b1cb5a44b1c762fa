package main

import (
	"fmt"
	"strings"
	"time"

	"vkernel/internal/obs"
	"vkernel/internal/rfs"
)

// runSmoke is the CI obs-smoke target: boot a two-shard replicated
// cluster in-process — once on the in-memory mesh, once on loopback
// UDP — push traced traffic through it, scrape every shard over
// OpQueryStats, and assert the scraped state is sane: the expected
// metrics exist, counters only move forward between scrapes, and the
// traced writes left a multi-node span timeline (primary op + replica
// apply under one trace id).
func runSmoke() error {
	for _, udp := range []bool{false, true} {
		label := "mem"
		if udp {
			label = "udp"
		}
		if err := smokeCluster(udp); err != nil {
			return fmt.Errorf("%s cluster: %w", label, err)
		}
		fmt.Printf("vstat smoke: %s cluster OK\n", label)
	}
	return nil
}

func smokeCluster(udp bool) error {
	// SlowOp enables timing (so the op histograms fill) and arms slow-op
	// capture at a threshold nothing in a healthy in-process cluster hits
	// — every recorded span must therefore come from the traced client.
	cl, err := rfs.StartCluster(rfs.ClusterConfig{
		Shards:   2,
		Replicas: 1,
		UDP:      udp,
		Server:   rfs.Config{SlowOp: 2 * time.Second},
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	node, err := cl.ClientNode()
	if err != nil {
		return err
	}
	proc, err := node.Attach("vstat-smoke")
	if err != nil {
		return err
	}
	defer node.Detach(proc)
	router, err := rfs.NewRouter(node)
	if err != nil {
		return err
	}
	defer router.Close()

	trace := obs.NewTraceID()
	const file, blocks = 7, 4
	traffic := func() error {
		buf := make([]byte, 512)
		in := make([]byte, 512)
		for _, vol := range cl.Volumes {
			c := rfs.NewVolumeClient(proc, router, vol)
			c.SetTrace(trace)
			for i := range buf {
				buf[i] = byte(i + int(vol))
			}
			for blk := uint32(0); blk < blocks; blk++ {
				if err := c.WriteBlock(file, blk, buf); err != nil {
					return fmt.Errorf("vol %d write block %d: %w", vol, blk, err)
				}
			}
			for blk := uint32(0); blk < blocks; blk++ {
				if _, err := c.ReadBlock(file, blk, in); err != nil {
					return fmt.Errorf("vol %d read block %d: %w", vol, blk, err)
				}
			}
			if err := c.Sync(file); err != nil {
				return fmt.Errorf("vol %d sync: %w", vol, err)
			}
		}
		return nil
	}
	scrape := func() (map[string]*obs.Snapshot, error) {
		vols, err := rfs.ClusterMap(proc, 300*time.Millisecond)
		if err != nil {
			return nil, err
		}
		snaps := make(map[string]*obs.Snapshot, len(vols))
		for pid := range vols {
			snap, err := scrapeOne(proc, pid, 64*1024)
			if err != nil {
				return nil, err
			}
			snaps[snap.Node] = snap
		}
		return snaps, nil
	}

	if err := waitInSync(cl, 10*time.Second); err != nil {
		return err
	}
	if err := traffic(); err != nil {
		return err
	}
	first, err := scrape()
	if err != nil {
		return fmt.Errorf("first scrape: %w", err)
	}
	if len(first) != 2 {
		return fmt.Errorf("scraped %d shards, want 2", len(first))
	}
	if err := checkPresent(first, udp); err != nil {
		return err
	}
	if err := checkTimeline(first, trace); err != nil {
		return err
	}

	if err := traffic(); err != nil {
		return err
	}
	second, err := scrape()
	if err != nil {
		return fmt.Errorf("second scrape: %w", err)
	}
	return checkMonotonic(first, second)
}

// waitInSync polls the shards' registries until every volume's
// rfs.vol<id>.repl_insync gauge reads at least 1. A write that reaches a
// primary before its replica has enrolled is not logged and never
// pushed, so traced traffic any earlier can leave no repl.push span.
func waitInSync(cl *rfs.Cluster, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := 0
		for _, cs := range cl.Servers {
			cs.Srv.Metrics().Do(nil, func(name string, v int64) {
				if strings.HasSuffix(name, ".repl_insync") && v >= 1 {
					ready++
				}
			}, nil)
		}
		if ready == len(cl.Volumes) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d volumes have an in-sync replica after %v", ready, len(cl.Volumes), timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkPresent asserts the metric families every layer should have
// registered are in the scrape with believable values.
func checkPresent(snaps map[string]*obs.Snapshot, udp bool) error {
	for node, s := range snaps {
		for _, name := range []string{"rfs.requests", "rfs.page_writes", "rfs.stat_scrapes", "ipc.remote_replies"} {
			if _, ok := s.Counters[name]; !ok {
				return fmt.Errorf("%s: counter %s missing from scrape", node, name)
			}
		}
		if s.Counters["rfs.requests"] == 0 {
			return fmt.Errorf("%s: rfs.requests is 0 after traffic", node)
		}
		if udp && s.Counters["net.sends"] == 0 {
			return fmt.Errorf("%s: net.sends is 0 on a UDP cluster", node)
		}
		vols := volKeys(s)
		if len(vols) == 0 {
			return fmt.Errorf("%s: no per-volume gauges in scrape", node)
		}
		// Each shard hosts one primary and one replica; the replica's
		// dirty/hit gauges exist too, so just require the role gauge.
		for _, vol := range vols {
			if _, ok := s.Gauges[fmt.Sprintf("rfs.vol%d.role", vol)]; !ok {
				return fmt.Errorf("%s: vol%d role gauge missing", node, vol)
			}
		}
		h, ok := s.Hists["rfs.op.write_block"]
		if !ok || h.Count == 0 {
			return fmt.Errorf("%s: rfs.op.write_block histogram empty (timing should be on via SlowOp)", node)
		}
		if h.P50 <= 0 || h.Max < h.P50 {
			return fmt.Errorf("%s: torn write_block histogram: %+v", node, h)
		}
	}
	return nil
}

// checkTimeline asserts the traced writes produced spans on more than
// one node under the one trace id: the primary's op span and the
// replica's apply span together are the cross-node timeline.
func checkTimeline(snaps map[string]*obs.Snapshot, trace uint32) error {
	whats := make(map[string]map[string]bool) // what -> set of nodes
	for node, s := range snaps {
		for _, e := range s.Events {
			if e.Trace != trace {
				continue
			}
			if whats[e.What] == nil {
				whats[e.What] = make(map[string]bool)
			}
			whats[e.What][node] = true
		}
	}
	for _, want := range []string{"rfs.write_block", "repl.push", "repl.apply"} {
		if len(whats[want]) == 0 {
			return fmt.Errorf("no %s span for trace %06x (saw %v)", want, trace, spanNames(whats))
		}
	}
	nodes := make(map[string]bool)
	for _, byNode := range whats {
		for n := range byNode {
			nodes[n] = true
		}
	}
	if len(nodes) < 2 {
		return fmt.Errorf("trace %06x spans confined to one node %v — replication should cross shards", trace, spanNames(whats))
	}
	return nil
}

func spanNames(whats map[string]map[string]bool) []string {
	names := make([]string, 0, len(whats))
	for w := range whats {
		names = append(names, w)
	}
	return names
}

// checkMonotonic asserts every counter seen in the first scrape is
// still present and has not gone backwards, and that the second round
// of traffic actually moved the request counter on every shard.
func checkMonotonic(first, second map[string]*obs.Snapshot) error {
	for node, a := range first {
		b, ok := second[node]
		if !ok {
			return fmt.Errorf("%s vanished between scrapes", node)
		}
		for name, v := range a.Counters {
			w, ok := b.Counters[name]
			if !ok {
				return fmt.Errorf("%s: counter %s vanished between scrapes", node, name)
			}
			if w < v {
				return fmt.Errorf("%s: counter %s went backwards: %d -> %d", node, name, v, w)
			}
		}
		if b.Counters["rfs.requests"] <= a.Counters["rfs.requests"] {
			return fmt.Errorf("%s: rfs.requests did not advance across traffic rounds", node)
		}
	}
	return nil
}
