// Command vstat scrapes live metrics from every file server in a V
// cluster over the V IPC protocol itself: it enumerates the servers by
// broadcast (DiscoverAll), asks each which volumes it hosts
// (OpQueryVolumes), pulls each one's metrics snapshot (OpQueryStats, a
// text snapshot replied into a client-granted segment) and
// renders per-shard and aggregate tables — request counters, cache
// occupancy and hit rates, replication lag and in-sync set sizes,
// kernel/transport counters, latency percentiles, and recent trace
// events. No side channel: a scrape is just another V message exchange,
// so whatever network reaches the servers reaches their stats.
//
// With -smoke it instead boots a two-shard replicated cluster
// in-process (once on the in-memory mesh, once on loopback UDP), runs
// traced traffic through it, scrapes twice, and asserts the expected
// metrics are present and monotonic — the CI obs-smoke target.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"vkernel/internal/ipc"
	"vkernel/internal/obs"
	"vkernel/internal/rfs"
	"vkernel/internal/stats"
)

func main() {
	var peers peerList
	var (
		listen = flag.String("listen", "127.0.0.1:0", "UDP listen address for the scraper's own node")
		host   = flag.Int("host", 90, "logical host id for the scraper node")
		window = flag.Duration("window", 300*time.Millisecond, "discovery window for enumerating servers")
		grant  = flag.Int("bytes", 64*1024, "segment grant per scrape; snapshots larger than this are truncated at a line boundary")
		events = flag.Int("events", 12, "trace events to print per cluster, newest last (0 = none)")
		traceF = flag.Uint("trace", 0, "only print trace events with this 24-bit trace id")
		smoke  = flag.Bool("smoke", false, "self-test: boot a 2-shard replicated cluster in-process, run traffic, scrape, assert")
	)
	flag.Var(&peers, "peer", "host=addr of a server to scrape, repeatable or comma-separated (e.g. -peer 1=127.0.0.1:7001,2=127.0.0.1:7002)")
	flag.Parse()

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "vstat smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("vstat smoke: OK")
		return
	}

	if len(peers) == 0 {
		fmt.Fprintln(os.Stderr, "vstat: at least one -peer is required (or -smoke)")
		os.Exit(2)
	}
	tr, err := ipc.NewUDPTransport(*listen)
	fatalIf(err)
	for _, p := range peers {
		tr.AddPeer(p.host, p.addr)
	}
	node := ipc.NewNode(ipc.LogicalHost(*host), tr, ipc.NodeConfig{})
	defer node.Close()
	proc, err := node.Attach("vstat")
	fatalIf(err)
	defer node.Detach(proc)

	vols, err := rfs.ClusterMap(proc, *window)
	fatalIf(err)
	snaps, volsByNode, err := scrapeAll(proc, vols, *grant)
	fatalIf(err)
	fmt.Print(render(snaps, volsByNode))
	fmt.Print(renderEvents(snaps, *events, uint32(*traceF)))
}

// scrapeAll pulls one snapshot per server and keys both the snapshots
// and the server's volume set by node label (servers label themselves;
// two servers claiming the same label get their pid suffixed so neither
// scrape is lost).
func scrapeAll(proc *ipc.Proc, vols map[ipc.Pid][]uint32, grant int) ([]*obs.Snapshot, map[string][]uint32, error) {
	var snaps []*obs.Snapshot
	byNode := make(map[string][]uint32)
	pids := make([]ipc.Pid, 0, len(vols))
	for pid := range vols {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		snap, err := scrapeOne(proc, pid, grant)
		if err != nil {
			return nil, nil, fmt.Errorf("scrape %v: %w", pid, err)
		}
		if _, dup := byNode[snap.Node]; dup {
			snap.Node = fmt.Sprintf("%s@%x", snap.Node, uint32(pid))
		}
		byNode[snap.Node] = vols[pid]
		snaps = append(snaps, snap)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Node < snaps[j].Node })
	return snaps, byNode, nil
}

// scrapeOne performs one OpQueryStats exchange and parses the result.
// A truncated snapshot (grant smaller than the server's state) is still
// parseable — the server cuts at a line boundary — but is reported so
// the operator knows to raise -bytes.
func scrapeOne(proc *ipc.Proc, pid ipc.Pid, grant int) (*obs.Snapshot, error) {
	buf := make([]byte, grant)
	streamed, total, err := rfs.NewClient(proc, pid).QueryStats(buf)
	if err != nil {
		return nil, err
	}
	if streamed < total {
		fmt.Fprintf(os.Stderr, "vstat: %v: snapshot truncated (%d of %d bytes; raise -bytes)\n", pid, streamed, total)
	}
	return obs.ParseSnapshot(buf[:streamed])
}

// render formats the cluster's scraped state as tables. Counters are
// totalled across shards; gauges and percentiles are inherently
// per-shard and stay that way.
func render(snaps []*obs.Snapshot, vols map[string][]uint32) string {
	var b strings.Builder

	req := stats.Table{ID: "vstat-1", Title: "file-service requests", Unit: "counts since server start",
		Columns: []string{"reqs", "pg_rd", "pg_wr", "lg_rd", "lg_wr", "sync", "bad", "scrapes"}}
	names := []string{"rfs.requests", "rfs.page_reads", "rfs.page_writes", "rfs.large_reads",
		"rfs.large_writes", "rfs.syncs", "rfs.bad_requests", "rfs.stat_scrapes"}
	total := make([]int64, len(names))
	for _, s := range snaps {
		cells := make([]stats.Cell, len(names))
		for i, n := range names {
			v := s.Counters[n]
			total[i] += v
			cells[i] = count(v)
		}
		req.AddRow(s.Node+" "+volList(vols[s.Node]), cells...)
	}
	if len(snaps) > 1 {
		cells := make([]stats.Cell, len(names))
		for i, v := range total {
			cells[i] = count(v)
		}
		req.AddRow("TOTAL", cells...)
	}
	b.WriteString(req.Render())
	b.WriteString("\n")

	volT := stats.Table{ID: "vstat-2", Title: "volumes: cache and replication", Unit: "hit% of reads; extents = large-write trains not yet written back; wb_drop = blocks dropped once written back; lag in records",
		Columns: []string{"role", "hits", "misses", "hit%", "dirty", "extents", "wb_drop", "repl_seq", "insync", "lag"}}
	for _, s := range snaps {
		for _, vol := range volKeys(s) {
			pfx := fmt.Sprintf("rfs.vol%d.", vol)
			g := func(name string) int64 { return s.Gauges[pfx+name] }
			role := "primary"
			if g("role") != int64(rfs.RolePrimary) {
				role = "replica"
			}
			hits, misses := g("cache_hits"), g("cache_misses")
			hitPct := 0.0
			if hits+misses > 0 {
				hitPct = 100 * float64(hits) / float64(hits+misses)
			}
			row := []stats.Cell{stats.Txt(role), count(hits), count(misses), stats.M(hitPct), count(g("dirty_blocks")), count(g("staged_extents")), count(g("writeback_drops"))}
			if role == "primary" {
				row = append(row, count(g("repl_seq")), count(g("repl_insync")), count(g("repl_lag")))
			} else {
				row = append(row, stats.Blank(), stats.Blank(), stats.Blank())
			}
			volT.AddRow(fmt.Sprintf("%s/vol%d", s.Node, vol), row...)
		}
	}
	b.WriteString(volT.Render())
	b.WriteString("\n")

	// tx_sys/rx_sys are kernel crossings, tx_pkt/rx_pkt the packets they
	// carried: far apart when bulk trains go out segmented. rx_inl is the
	// share of rx_pkt handled on the read loop (the exchange protocol), the
	// rest went to the dispatch workers; rx_train of rx_sys went whole.
	// push_hit/push_drop: MoveFroms a push served, pushed packets dropped;
	// rx_run: runs of two or more bulk data packets landed under one lookup.
	ker := stats.Table{ID: "vstat-3", Title: "kernel and transport",
		Columns: []string{"tx_sys", "tx_pkt", "rx_sys", "rx_pkt", "rx_inl", "rx_train", "gso_ref", "replies", "rep_held", "retrans", "dups", "nacks", "sheds", "mv_resume", "mv_ooo", "push_hit", "push_drop", "rx_run"}}
	for _, s := range snaps {
		ker.AddRow(s.Node,
			count(s.Counters["net.sends"]), count(s.Counters["net.tx_packets"]),
			count(s.Counters["net.recvs"]), count(s.Counters["net.rx_packets"]),
			count(s.Counters["net.rx_inline"]), count(s.Counters["net.rx_trains"]),
			count(s.Counters["net.gso_refused"]),
			count(s.Counters["ipc.remote_replies"]), count(s.Counters["ipc.replies_held"]),
			count(s.Counters["ipc.retransmits"]),
			count(s.Counters["ipc.dups_filtered"]), count(s.Counters["ipc.nacks_sent"]),
			count(s.Counters["ipc.overload_sheds"]),
			count(s.Counters["ipc.move_resumes"]), count(s.Counters["ipc.move_ooo_drops"]),
			count(s.Counters["ipc.push_hits"]), count(s.Counters["ipc.push_drops"]),
			count(s.Counters["ipc.rx_runs"]))
	}
	b.WriteString(ker.Render())
	b.WriteString("\n")

	lat := stats.Table{ID: "vstat-4", Title: "operation latency", Unit: "us; empty when -timing is off on the server",
		Columns: []string{"count", "mean", "p50", "p95", "p99", "max"}}
	for _, s := range snaps {
		for _, name := range histKeys(s) {
			h := s.Hists[name]
			if h.Count == 0 {
				continue
			}
			lat.AddRow(s.Node+" "+strings.TrimPrefix(name, "rfs.op."),
				count(h.Count), us(h.Mean()), us(h.P50), us(h.P95), us(h.P99), us(h.Max))
		}
	}
	if len(lat.Rows) > 0 {
		b.WriteString(lat.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// renderEvents prints the newest trace events across all shards, merged
// into one cluster-wide timeline (every node timestamps its own spans;
// on one machine — or with synced clocks — the merge reads in causal
// order).
func renderEvents(snaps []*obs.Snapshot, max int, trace uint32) string {
	if max <= 0 {
		return ""
	}
	var all []obs.Event
	for _, s := range snaps {
		for _, e := range s.Events {
			if trace != 0 && e.Trace != trace {
				continue
			}
			all = append(all, e)
		}
	}
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].When.Before(all[j].When) })
	if len(all) > max {
		all = all[len(all)-max:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace events (newest %d):\n", len(all))
	for _, e := range all {
		fmt.Fprintf(&b, "  %s %-8s trace=%06x %-16s arg=%#x dur=%v\n",
			e.When.Format("15:04:05.000000"), e.Node, e.Trace, e.What, e.Arg, e.Dur)
	}
	return b.String()
}

// count renders an integer counter cell without decimal noise.
func count(v int64) stats.Cell {
	c := stats.M(float64(v))
	c.Decimals = 0
	return c
}

// us renders nanoseconds as microseconds.
func us(ns int64) stats.Cell {
	return stats.M(float64(ns) / 1e3)
}

// volKeys extracts the sorted volume ids present in a snapshot's
// per-volume gauges (rfs.vol<id>.*).
func volKeys(s *obs.Snapshot) []uint32 {
	seen := make(map[uint32]bool)
	for name := range s.Gauges {
		if !strings.HasPrefix(name, "rfs.vol") {
			continue
		}
		rest := strings.TrimPrefix(name, "rfs.vol")
		dot := strings.IndexByte(rest, '.')
		if dot <= 0 {
			continue
		}
		id, err := strconv.ParseUint(rest[:dot], 10, 32)
		if err != nil {
			continue
		}
		seen[uint32(id)] = true
	}
	vols := make([]uint32, 0, len(seen))
	for id := range seen {
		vols = append(vols, id)
	}
	sort.Slice(vols, func(i, j int) bool { return vols[i] < vols[j] })
	return vols
}

// histKeys returns the snapshot's histogram names, sorted.
func histKeys(s *obs.Snapshot) []string {
	names := make([]string, 0, len(s.Hists))
	for name := range s.Hists {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func volList(vols []uint32) string {
	if len(vols) == 0 {
		return ""
	}
	parts := make([]string, len(vols))
	for i, v := range vols {
		parts[i] = strconv.FormatUint(uint64(v), 10)
	}
	return "v" + strings.Join(parts, ",")
}

// peerList accumulates -peer flags: repeatable, each value one or more
// comma-separated host=addr entries (same syntax as vnode's -peer).
type peerList []peer

type peer struct {
	host ipc.LogicalHost
	addr *net.UDPAddr
}

func (p *peerList) String() string { return fmt.Sprintf("%d peers", len(*p)) }

func (p *peerList) Set(v string) error {
	for _, item := range strings.Split(v, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		eq := strings.IndexByte(item, '=')
		if eq <= 0 {
			return fmt.Errorf("bad peer %q (want host=addr)", item)
		}
		host, err := strconv.ParseUint(item[:eq], 10, 32)
		if err != nil {
			return fmt.Errorf("bad peer host %q: %v", item[:eq], err)
		}
		addr, err := net.ResolveUDPAddr("udp", item[eq+1:])
		if err != nil {
			return fmt.Errorf("bad peer addr %q: %v", item[eq+1:], err)
		}
		*p = append(*p, peer{host: ipc.LogicalHost(host), addr: addr})
	}
	return nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vstat:", err)
		os.Exit(1)
	}
}
